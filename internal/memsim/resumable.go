package memsim

import (
	"reflect"
	"sync"
)

// Resumable is the program representation of every procedure call: an
// explicit state machine that the Controller dispatches inline. Each
// Next is one scheduling point (one shared-memory access), advanced by a
// plain method call, and the call's entire local state lives in a plain
// struct (a "frame") that can be copied, which is what the backtracking
// explorer's undo machinery relies on. Procedures compose by driving
// sub-frames from their own Next (lock sections inside a passage, the
// election inside leader-blocking's Wait).
//
// Protocol: the controller calls Next with the result of the previously
// granted access (the zero Result on the first invocation). Next returns
// the next access the program wants to perform, or ok=false once the call
// has completed, after which Return yields the call's response.
//
// Implementations must be deterministic and must keep all mutable
// call-local state in the frame itself (no captured variables, no shared
// scratch), so that a copy of the frame is an independent continuation
// point.
type Resumable interface {
	// Next advances the program by one scheduling point. prev is the
	// result of the access returned by the previous Next (zero on the
	// first call). ok=false reports call completion; acc is then ignored.
	Next(prev Result) (acc Access, ok bool)
	// Return is the call's response, valid once Next reported completion.
	Return() Value
	// CloneInto returns an independent copy of the frame. When dst is a
	// frame of the same concrete type, the copy is made in dst, reusing
	// its sub-frame and buffer storage, and dst is returned; for any other
	// dst, nil included, the copy is made in storage no one else holds
	// (see CloneTarget). dst must be a frame the caller owns exclusively,
	// never the receiver or one of its sub-frames, and the caller gives it
	// up: it keeps the result in dst's place. Frames whose shallow copy is
	// independent implement it with CopyFrame.
	CloneInto(dst Resumable) Resumable
}

// CopyFrame is the CloneInto of a frame whose shallow struct copy is an
// independent continuation point: scalar locals, and pointers only to
// immutable deployment data (see the frame discipline in the package
// documentation).
func CopyFrame[T any, P interface {
	*T
	Resumable
}](src P, dst Resumable) Resumable {
	d := CloneTarget[T, P](dst)
	*d = *src
	return d
}

// CloneTarget is where a CloneInto or a ProgramInto writes its frame: dst
// itself when it is a non-nil P, and otherwise a frame from P's pool, or a
// new zero frame when that pool is empty. A non-nil dst of another type is
// set aside in its own type's pool, so an owner whose slots alternate
// between frame types (a pooled workload that runs one algorithm after
// another, an engine snapshot whose process has moved to another call)
// stops allocating once each type has been seen. A pooled frame is stale:
// the caller writes it whole, as BuildFrame and every CloneInto do, and
// gives up dst (x = f(x)), which another owner may now hold.
func CloneTarget[T any, P interface {
	*T
	Resumable
}](dst Resumable) P {
	d, ok := dst.(P)
	if ok && d != nil {
		return d
	}
	if !ok && dst != nil {
		if v := reflect.ValueOf(dst); v.Kind() == reflect.Pointer && !v.IsNil() {
			framePool(v.Type()).Put(dst)
		}
	}
	if d, _ := framePool(reflect.TypeFor[P]()).Get().(P); d != nil {
		return d
	}
	return P(new(T))
}

// framePools holds one *sync.Pool of set-aside frames per frame pointer
// type; see CloneTarget.
var framePools sync.Map

// framePool returns the pool of frames of type t.
func framePool(t reflect.Type) *sync.Pool {
	if p, ok := framePools.Load(t); ok {
		return p.(*sync.Pool)
	}
	p, _ := framePools.LoadOrStore(t, new(sync.Pool))
	return p.(*sync.Pool)
}

// BuildFrame is the ProgramInto of a frame whose pristine state is the
// value v and whose shallow copy is independent: v is written whole into
// the frame CloneTarget picks for dst.
func BuildFrame[T any, P interface {
	*T
	Resumable
}](dst Resumable, v T) P {
	d := CloneTarget[T, P](dst)
	*d = v
	return d
}

// CloneResumableInto is src.CloneInto(dst), with a nil src copied as nil.
func CloneResumableInto(dst, src Resumable) Resumable {
	if src == nil {
		return nil
	}
	return src.CloneInto(dst)
}
