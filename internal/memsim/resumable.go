package memsim

import "reflect"

// Resumable is the program representation of every procedure call: an
// explicit state machine that the Controller dispatches inline. Each
// Next is one scheduling point (one shared-memory access), advanced by a
// plain method call, and the call's entire local state lives in a plain
// struct (a "frame") that can be copied, which is what the backtracking
// explorer's undo machinery relies on. Procedures compose by driving
// sub-frames from their own Next (lock sections inside a passage, Poll
// inside a blockified Wait).
//
// Protocol: the controller calls Next with the result of the previously
// granted access (the zero Result on the first invocation). Next returns
// the next access the program wants to perform, or ok=false once the call
// has completed, after which Return yields the call's response.
//
// Implementations must be deterministic and must keep all mutable
// call-local state in the frame itself (no captured variables, no shared
// scratch), so that a shallow copy of the frame is an independent
// continuation point.
type Resumable interface {
	// Next advances the program by one scheduling point. prev is the
	// result of the access returned by the previous Next (zero on the
	// first call). ok=false reports call completion; acc is then ignored.
	Next(prev Result) (acc Access, ok bool)
	// Return is the call's response, valid once Next reported completion.
	Return() Value
}

// ResumableCloner is implemented by resumable frames that need custom
// copying — typically frames that hold sub-frames (nested Resumables),
// which a shallow struct copy would share between the original and the
// copy. CloneResumable must return an independent continuation point.
type ResumableCloner interface {
	CloneResumable() Resumable
}

// ResumableCopier is implemented by ResumableCloner frames that can
// additionally copy their state into a previously cloned frame, reusing
// its allocations. CopyResumableInto reports success; on a shape mismatch
// the caller falls back to CloneResumable.
type ResumableCopier interface {
	ResumableCloner
	CopyResumableInto(dst Resumable) bool
}

// CloneResumable copies a frame so the copy can be resumed independently.
// The engines snapshot through CloneResumableInto (via FrameSet); this is
// the same copy with no storage to reuse. Frames implementing
// ResumableCloner are copied by their own method; all other frames are
// pointer-to-struct values and get a shallow struct copy, which is correct
// for the frame discipline this package prescribes (scalar locals in
// fields; shared references only to immutable deployment data; slices
// written append-at-index below a frame-held cursor).
func CloneResumable(r Resumable) Resumable { return CloneResumableInto(nil, r) }

// CloneResumableInto copies src's state into dst when dst is a reusable
// frame of src's concrete type (the pooled-snapshot fast path: no
// allocation), and into a fresh copy otherwise. dst must be nil or a
// frame the caller owns exclusively — typically the same mark slot's
// previous occupant.
func CloneResumableInto(dst, src Resumable) Resumable {
	if src == nil {
		return nil
	}
	if c, ok := src.(ResumableCopier); ok {
		if dst != nil && c.CopyResumableInto(dst) {
			return dst
		}
		return c.CloneResumable()
	}
	if c, ok := src.(ResumableCloner); ok {
		return c.CloneResumable()
	}
	sv := reflect.ValueOf(src)
	if sv.Kind() != reflect.Pointer || sv.IsNil() {
		return src // value frames copy by interface assignment already
	}
	if dst != nil {
		if dv := reflect.ValueOf(dst); dv.Kind() == reflect.Pointer && !dv.IsNil() && dv.Type() == sv.Type() {
			dv.Elem().Set(sv.Elem())
			return dst
		}
	}
	c := reflect.New(sv.Elem().Type())
	c.Elem().Set(sv.Elem())
	return c.Interface().(Resumable)
}
