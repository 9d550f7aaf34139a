package signal

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/memsim"
)

// Blockified derives a blocking-semantics solution from a polling one,
// exactly as Section 7 prescribes: "the blocking solution can be achieved
// easily by implementing Wait() via repeated execution of the code for
// Poll()". The wrapper leaves Poll and Signal untouched and synthesizes
// Wait as an unbounded sequence of poll bodies executed within one call.
// An algorithm without Poll has nothing to repeat: its blockified Wait is
// unsupported (ErrUnsupported).
//
// The derived Wait inherits the polling algorithm's RMR behaviour per
// poll; for local-spin algorithms (e.g. queue after registration) the
// busy-wait is local, for the flag algorithm under the DSM rule it is the
// unbounded remote spin the paper's contrast highlights.
func Blockified(alg Algorithm) Algorithm {
	out := alg
	out.Name = alg.Name + "+wait"
	out.Comment = alg.Comment + "; Wait derived by repeated Poll (Section 7)"
	out.Variant.Blocking = true
	inner := alg.New
	out.New = func(m *memsim.Machine, n int) (memsim.Instance, error) {
		in, err := inner(m, n)
		if err != nil {
			return nil, err
		}
		return &blockifiedInstance{inner: in, polling: alg.Variant.Polling}, nil
	}
	return out
}

type blockifiedInstance struct {
	inner   memsim.Instance
	polling bool // the inner algorithm has Poll
}

// ResumableProgram implements memsim.Instance: Poll and Signal delegate to
// the inner algorithm; Wait repeats the inner Poll within one call.
//
//	Wait() by p_i: while !Poll() {}
func (b *blockifiedInstance) ResumableProgram(pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	if kind != memsim.CallWait {
		return b.inner.ResumableProgram(pid, kind)
	}
	if !b.polling {
		return nil, ErrUnsupported
	}
	return &blockifiedWaitFrame{inner: b.inner, pid: pid}, nil
}

// blockifiedWaitFrame executes poll frame after poll frame until one
// returns nonzero. Each iteration mints a fresh frame, so per-call state
// transitions (first-call registration) occur exactly once overall — the
// instance, not the call, carries that state.
type blockifiedWaitFrame struct {
	inner memsim.Instance
	pid   memsim.PID
	cur   memsim.Resumable
}

var _ memsim.ResumableCloner = (*blockifiedWaitFrame)(nil)

func (f *blockifiedWaitFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	for {
		if f.cur == nil {
			// The inner algorithm has Poll (ResumableProgram checked).
			f.cur, _ = f.inner.ResumableProgram(f.pid, memsim.CallPoll)
			prev = memsim.Result{} // fresh frame: first Next sees zero
		}
		if acc, ok := f.cur.Next(prev); ok {
			return acc, true
		}
		signaled := f.cur.Return() != 0
		f.cur = nil
		if signaled {
			return memsim.Access{}, false
		}
		prev = memsim.Result{}
	}
}

func (f *blockifiedWaitFrame) Return() memsim.Value { return 0 }

// CloneResumable implements memsim.ResumableCloner.
func (f *blockifiedWaitFrame) CloneResumable() memsim.Resumable {
	c := *f
	c.cur = memsim.CloneResumable(f.cur)
	return &c
}

// EncodeState implements memsim.StateEncoder: the in-flight poll frame
// encodes by content, never by pointer.
func (f *blockifiedWaitFrame) EncodeState(w io.Writer) {
	fmt.Fprintf(w, "%d,", f.pid)
	memsim.EncodeFrameState(w, f.cur)
}

// AppendState implements memsim.StateAppender.
func (f *blockifiedWaitFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.pid))
	return memsim.AppendFrameState(dst, f.cur)
}

// CopyResumableInto implements memsim.ResumableCopier, recycling dst's
// in-flight poll frame when the types line up.
func (f *blockifiedWaitFrame) CopyResumableInto(dst memsim.Resumable) bool {
	d, ok := dst.(*blockifiedWaitFrame)
	if !ok {
		return false
	}
	cur := d.cur
	*d = *f
	d.cur = memsim.CloneResumableInto(cur, f.cur)
	return true
}

var (
	_ memsim.StateAppender   = (*blockifiedWaitFrame)(nil)
	_ memsim.ResumableCopier = (*blockifiedWaitFrame)(nil)
)
