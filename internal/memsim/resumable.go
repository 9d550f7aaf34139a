package memsim

import (
	"fmt"
	"io"
	"reflect"
	"sync"
)

// Resumable is the goroutine-free program representation: an explicit state
// machine that the Controller dispatches inline. Where a blocking Program
// suspends its goroutine at every shared-memory access (two channel
// handshakes per step), a Resumable is advanced by plain method calls —
// zero goroutines, zero channel operations, and its entire call-local state
// lives in a plain struct (a "frame") that can be copied, which is what the
// backtracking explorer's undo machinery relies on.
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

// ResumableInstance is an Instance whose procedures also exist in native
// resumable form. The Execution starts calls through ResumableProgram when
// available (falling back to the blocking Program on error), so instances
// migrate procedure by procedure without breaking anything.
type ResumableInstance interface {
	Instance
	// ResumableProgram returns the resumable form of one invocation of the
	// given procedure by pid. It must issue exactly the same access
	// sequence as the blocking Program for every schedule.
	//
	// On a deployed instance the result must be a pure function of
	// (pid, kind): every call returns a fresh frame in the same state,
	// whatever the machine holds and however many frames were minted
	// before. Per-call state belongs in the frame and shared state in
	// machine words, never in the instance. The engines rely on this:
	// they mint one template per (pid, kind) (FrameTemplates) and start
	// every later call from a copy of it, and they never snapshot the
	// instance.
	ResumableProgram(pid PID, kind CallKind) (Resumable, error)
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

// blockJob is one blocking program handed to a pool worker.
type blockJob struct {
	prog Program
	proc *Proc
	done chan Value
}

// worker is a reusable handoff goroutine: it runs blocking programs one at
// a time and parks itself back in its pool between calls, so a run with
// thousands of procedure calls spawns at most max-concurrency goroutines
// instead of one per call.
type worker struct {
	pool *WorkerPool
	jobs chan blockJob
}

func (w *worker) loop() {
	for job := range w.jobs {
		w.run(job)
		if !w.pool.release(w) {
			return
		}
	}
}

// run executes one blocking program, delivering its return value on the
// job's done channel. An aborted program unwinds with procAborted and
// delivers nothing; the worker survives and returns to the pool.
func (w *worker) run(job blockJob) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procAborted); ok {
				return
			}
			panic(r)
		}
	}()
	job.done <- job.prog(job.proc)
}

// WorkerPool owns the handoff goroutines behind FromBlocking adapters. It
// exists so the blocking compatibility path reuses goroutines instead of
// spawning one per procedure call; Close terminates every idle worker,
// which is what makes goroutine-leak assertions possible after a run.
type WorkerPool struct {
	mu     sync.Mutex
	free   []*worker
	max    int
	closed bool
}

// NewWorkerPool returns a pool retaining up to max idle workers (a
// non-positive max keeps 8). Workers are spawned on demand.
func NewWorkerPool(max int) *WorkerPool {
	if max <= 0 {
		max = 8
	}
	return &WorkerPool{max: max}
}

// get pops an idle worker or spawns a fresh one.
func (p *WorkerPool) get() *worker {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		w := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return w
	}
	p.mu.Unlock()
	w := &worker{pool: p, jobs: make(chan blockJob)}
	go w.loop()
	return w
}

// release parks w back in the pool; false tells the worker to exit (pool
// closed or at capacity).
func (p *WorkerPool) release(w *worker) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.free) >= p.max {
		return false
	}
	p.free = append(p.free, w)
	return true
}

// Close terminates every idle worker and makes busy workers exit as they
// finish. The pool must not be used afterward.
func (p *WorkerPool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for _, w := range p.free {
		close(w.jobs)
	}
	p.free = nil
}

// FromBlocking adapts a blocking Program into a Resumable: the program runs
// on a pooled handoff goroutine and every scheduling point is relayed
// through the adapter's channels. This is the compatibility tier of the
// engine — per step it still pays the two channel handshakes the blocking
// representation requires, but call start-up no longer spawns a goroutine
// when an idle worker is available. Native Resumable implementations skip
// all of it.
func (p *WorkerPool) FromBlocking(pid PID, prog Program) Resumable {
	proc := &Proc{
		pid:   pid,
		req:   make(chan Access),
		res:   make(chan Result),
		abort: make(chan struct{}),
	}
	f := &blockingFrame{proc: proc, done: make(chan Value, 1)}
	w := p.get()
	w.jobs <- blockJob{prog: prog, proc: proc, done: f.done}
	return f
}

// blockingFrame drives one blocking program call through the worker's
// channels, presenting the Resumable interface to the controller.
type blockingFrame struct {
	proc    *Proc
	done    chan Value
	started bool
	ret     Value
}

var _ Resumable = (*blockingFrame)(nil)

// Next implements Resumable: deliver the previous result to the parked
// program (except on the first call) and wait for its next access or its
// completion.
func (f *blockingFrame) Next(prev Result) (Access, bool) {
	if !f.started {
		f.started = true
	} else {
		f.proc.res <- prev
	}
	select {
	case acc := <-f.proc.req:
		return acc, true
	case ret := <-f.done:
		f.ret = ret
		return Access{}, false
	}
}

// Return implements Resumable.
func (f *blockingFrame) Return() Value { return f.ret }

// abortFrame kills the parked program; the worker survives and re-pools.
func (f *blockingFrame) abortFrame() { close(f.proc.abort) }

// frameAborter is what Controller.Abort looks for: only the blocking
// adapter has a goroutine to kill; native frames are simply dropped.
type frameAborter interface{ abortFrame() }
