package memsim

import (
	"fmt"
	"io"
	"reflect"
)

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

// CloneResumable copies a frame so the copy can be resumed independently.
// The engines snapshot through CloneResumableInto (via FrameSet), which
// falls back to this when it has no storage to reuse. Frames implementing
// ResumableCloner are copied by their own method; all other frames are
// pointer-to-struct values and get a shallow struct copy, which is correct
// for the frame discipline this package prescribes (scalar locals in
// fields; shared references only to immutable deployment data; slices
// written append-at-index below a frame-held cursor).
func CloneResumable(r Resumable) Resumable {
	if r == nil {
		return nil
	}
	if c, ok := r.(ResumableCloner); ok {
		return c.CloneResumable()
	}
	v := reflect.ValueOf(r)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		// Value frames are copied by interface assignment already.
		return r
	}
	c := reflect.New(v.Elem().Type())
	c.Elem().Set(v.Elem())
	return c.Interface().(Resumable)
}

// StateEncoder is implemented by resumable frames whose canonical state
// encoding differs from a plain field walk: frames holding sub-frames
// (whose heap addresses differ clone to clone) or slices written below a
// cursor (whose tails hold branch-dependent garbage). Equal logical states
// must encode equally and different logical states differently — the
// contract the explorer's state dedup rests on. Encodings must also be
// engine-independent (derived from machine addresses and frame values,
// never from heap addresses), because the parallel explorer compares
// encodings produced by different workers' executions.
type StateEncoder interface {
	EncodeState(w io.Writer)
}

// EncodeFrameState writes r's canonical mutable state to w: the frame's
// own StateEncoder when implemented, a canonical reflective field walk
// otherwise. The fallback renders scalars by value, slices and nested
// structs element-wise, pointers to other resumable frames by content, and
// any other pointer by its type alone — under the frame discipline those
// reference immutable deployment data (the instance, address tables) whose
// identity is fixed by the deterministic deployment, so the encoding is
// identical across executions deployed by different exploration workers.
// Heap addresses never enter the encoding. Frames whose mutable state the
// walk cannot see canonically must implement StateEncoder: per-call
// allocations, cursor-written slice tails, and any pointer whose IDENTITY
// varies at runtime (e.g. a cursor into a linked structure — the walk
// encodes non-frame pointers by type alone, so states differing only in
// which same-typed object is referenced would wrongly merge).
func EncodeFrameState(w io.Writer, r Resumable) {
	if r == nil {
		io.WriteString(w, "<nil>")
		return
	}
	if e, ok := r.(StateEncoder); ok {
		fmt.Fprintf(w, "%T{", r)
		e.EncodeState(w)
		io.WriteString(w, "}")
		return
	}
	fmt.Fprintf(w, "%T", r)
	v := reflect.ValueOf(r)
	if v.Kind() == reflect.Pointer && !v.IsNil() {
		v = v.Elem()
	}
	encodeCanonical(w, v)
}

// resumableType is the interface frames are checked against when the
// canonical walk meets a pointer: frame pointers encode by content,
// everything else is deployment data and encodes by type.
var resumableType = reflect.TypeOf((*Resumable)(nil)).Elem()

// encodeCanonical writes an engine-independent rendering of v; see
// EncodeFrameState. Struct fields are walked in declaration order
// (including unexported fields, which is where frames keep their state),
// with scalar kinds read through reflect's value accessors so no
// Interface() call — forbidden on unexported fields — is needed.
func encodeCanonical(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		fmt.Fprintf(w, "%t,", v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "%d,", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprintf(w, "%d,", v.Uint())
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(w, "%g,", v.Float())
	case reflect.String:
		fmt.Fprintf(w, "%q,", v.String())
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(w, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			encodeCanonical(w, v.Index(i))
		}
		io.WriteString(w, "],")
	case reflect.Struct:
		io.WriteString(w, "{")
		for i := 0; i < v.NumField(); i++ {
			encodeCanonical(w, v.Field(i))
		}
		io.WriteString(w, "},")
	case reflect.Pointer:
		if v.IsNil() {
			io.WriteString(w, "nil,")
			return
		}
		if v.Type().Implements(resumableType) {
			// A sub-frame: encode by content. Addressable exported values
			// go through EncodeFrameState so a StateEncoder implementation
			// is honored; unexported fields fall back to the plain walk
			// (frames needing more must implement StateEncoder at the
			// level the explorer sees).
			if v.CanInterface() {
				EncodeFrameState(w, v.Interface().(Resumable))
				io.WriteString(w, ",")
				return
			}
			fmt.Fprintf(w, "%s(", v.Type().Elem().String())
			encodeCanonical(w, v.Elem())
			io.WriteString(w, "),")
			return
		}
		fmt.Fprintf(w, "&%s,", v.Type().Elem().String())
	case reflect.Interface:
		if v.IsNil() {
			io.WriteString(w, "nil,")
			return
		}
		encodeCanonical(w, v.Elem())
	default:
		// chan, func, map and unsafe pointers are outside the frame
		// discipline; their type is all that can be said canonically.
		fmt.Fprintf(w, "<%s>,", v.Type().String())
	}
}
