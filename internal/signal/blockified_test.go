package signal

import (
	"encoding/binary"

	"repro/internal/memsim"
)

// Blockified is a test oracle: the frame golden and the frame, reset and
// template suites run every polling algorithm through it. It derives a
// blocking-semantics solution from a polling one, exactly as Section 7
// prescribes: "the blocking solution can be achieved easily by
// implementing Wait() via repeated execution of the code for Poll()". The wrapper leaves Poll and Signal untouched and synthesizes
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

// ProgramInto implements memsim.Instance: Poll and Signal delegate to the
// inner algorithm; Wait repeats the inner Poll within one call, and keeps
// dst's poll storage for its first poll.
//
//	Wait() by p_i: while !Poll() {}
func (b *blockifiedInstance) ProgramInto(dst memsim.Resumable, pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	if kind != memsim.CallWait {
		return b.inner.ProgramInto(dst, pid, kind)
	}
	if !b.polling {
		return nil, ErrUnsupported
	}
	d := memsim.CloneTarget[blockifiedWaitFrame](dst)
	spare := d.cur
	if spare == nil {
		spare = d.spare
	}
	*d = blockifiedWaitFrame{inner: b.inner, pid: pid, spare: spare}
	return d, nil
}

// ResumableProgram implements memsim.ResumableInstance.
func (b *blockifiedInstance) ResumableProgram(pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	return b.ProgramInto(nil, pid, kind)
}

// blockifiedWaitFrame executes poll frame after poll frame until one
// returns nonzero. Each poll is built by the inner instance in storage
// the frame keeps, so a spinning Wait allocates nothing after its first
// poll. Building a fresh poll is minting afresh because ProgramInto is a
// pure function of (pid, kind): per-call state transitions (first-call
// registration) occur exactly once overall — the instance's memory, not
// the call, carries that state.
type blockifiedWaitFrame struct {
	inner memsim.Instance
	pid   memsim.PID
	cur   memsim.Resumable // the running poll; nil between polls
	spare memsim.Resumable // the finished poll's storage, owned by this frame
}

func (f *blockifiedWaitFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	for {
		if f.cur == nil {
			// The inner algorithm has Poll (ProgramInto checked).
			f.cur, _ = f.inner.ProgramInto(f.spare, f.pid, memsim.CallPoll)
			f.spare = nil
			prev = memsim.Result{} // fresh frame: first Next sees zero
		}
		if acc, ok := f.cur.Next(prev); ok {
			return acc, true
		}
		signaled := f.cur.Return() != 0
		f.cur, f.spare = nil, f.cur
		if signaled {
			return memsim.Access{}, false
		}
		prev = memsim.Result{}
	}
}

func (f *blockifiedWaitFrame) Return() memsim.Value { return 0 }

// CloneInto implements memsim.Resumable, recycling dst's poll frame
// storage (in flight or spare) when the types line up.
func (f *blockifiedWaitFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	d := memsim.CloneTarget[blockifiedWaitFrame](dst)
	store := d.cur
	if store == nil {
		store = d.spare
	}
	*d = *f
	d.cur, d.spare = nil, store
	if f.cur != nil {
		d.cur, d.spare = f.cur.CloneInto(store), nil
	}
	return d
}

// AppendState implements memsim.StateAppender: the in-flight poll frame
// encodes by content, never by pointer.
func (f *blockifiedWaitFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.pid))
	return memsim.AppendFrameState(dst, f.cur)
}

var _ memsim.StateAppender = (*blockifiedWaitFrame)(nil)
