package queue

import (
	"encoding/binary"

	"repro/internal/memsim"
)

// RegisterFrame appends a value to the registry: one Fetch-And-Increment
// to claim a slot, one write to publish the value. It panics via the
// machine if the registry overflows (callers size it to the process
// count). Frames over the registry compose into larger resumable programs
// (the Section 7 signaling algorithms delegate to it).
//
//	t := F&I(tail, 1); write(slot[t], v)
type RegisterFrame struct {
	reg *Registry
	v   memsim.Value
	pc  uint8
}

var _ memsim.Resumable = (*RegisterFrame)(nil)

// RegisterResumable returns a frame that appends v to the registry.
func (r *Registry) RegisterResumable(v memsim.Value) *RegisterFrame {
	return &RegisterFrame{reg: r, v: v}
}

// Next implements memsim.Resumable.
func (f *RegisterFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	switch f.pc {
	case 0:
		f.pc = 1
		return memsim.AccFetchAdd(f.reg.tail, 1), true
	case 1:
		f.pc = 2
		return memsim.AccWrite(f.reg.slot+memsim.Addr(prev.Val), f.v), true
	default:
		return memsim.Access{}, false
	}
}

// Return implements memsim.Resumable.
func (f *RegisterFrame) Return() memsim.Value { return 0 }

// CloneInto implements memsim.Resumable.
func (f *RegisterFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

// AppendState implements memsim.StateAppender: the registry is identified
// by its (deterministic) tail address, never by pointer.
func (f *RegisterFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.reg.tail))
	dst = binary.AppendVarint(dst, int64(f.v))
	return binary.AppendUvarint(dst, uint64(f.pc))
}

var _ memsim.StateAppender = (*RegisterFrame)(nil)

// SnapshotFrame reads all currently registered values: the claimed length
// first (clamped to the capacity), then each slot in order, busy-waiting
// through the short window between a registrant's F&I and its slot write;
// that wait is bounded by the registrant's two-step registration under any
// fair schedule. Once complete, Vals holds the registered values. The
// caller sequences it after any happens-before barrier it needs (the
// signaling algorithm writes its global flag first).
//
// Each frame owns the buffer it collects into and reuses it for its next
// snapshot, so a copy must not share it: CloneInto copies the collected
// values into the destination's own buffer.
type SnapshotFrame struct {
	reg *Registry
	n   int
	j   int
	out []memsim.Value
	pc  uint8
}

var _ memsim.Resumable = (*SnapshotFrame)(nil)

// SnapshotResumable returns a frame that snapshots the registry.
func (r *Registry) SnapshotResumable() *SnapshotFrame {
	return &SnapshotFrame{reg: r}
}

// Next implements memsim.Resumable.
func (f *SnapshotFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	for {
		switch f.pc {
		case 0: // read the claimed length
			f.pc = 1
			return memsim.AccRead(f.reg.tail), true
		case 1: // length read; begin the slot scan
			f.n = int(prev.Val)
			if f.n > f.reg.cap {
				f.n = f.reg.cap
			}
			if cap(f.out) < f.n {
				f.out = make([]memsim.Value, f.reg.cap)
			}
			f.out = f.out[:f.n]
			f.j = 0
			f.pc = 2
		case 2: // issue the next slot read, or finish
			if f.j >= f.n {
				return memsim.Access{}, false
			}
			f.pc = 3
			return memsim.AccRead(f.reg.slot + memsim.Addr(f.j)), true
		case 3: // slot read: retry on NIL (mid-registration), else collect
			if prev.Val == memsim.Nil {
				return memsim.AccRead(f.reg.slot + memsim.Addr(f.j)), true
			}
			f.out[f.j] = prev.Val
			f.j++
			f.pc = 2
		}
	}
}

// Return implements memsim.Resumable.
func (f *SnapshotFrame) Return() memsim.Value { return 0 }

// AppendState implements memsim.StateAppender: only the below-cursor
// prefix of the collected slice is state; the tail holds garbage from
// sibling exploration branches.
func (f *SnapshotFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.reg.tail))
	dst = binary.AppendVarint(dst, int64(f.n))
	dst = binary.AppendVarint(dst, int64(f.j))
	dst = binary.AppendUvarint(dst, uint64(f.pc))
	dst = binary.AppendUvarint(dst, uint64(f.j))
	for _, v := range f.out[:f.j] {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return dst
}

var _ memsim.StateAppender = (*SnapshotFrame)(nil)

// Vals returns the snapshot, valid once Next has reported completion.
// It aliases the frame's buffer.
func (f *SnapshotFrame) Vals() []memsim.Value { return f.out }

// CloneInto implements memsim.Resumable, reusing dst's buffer.
func (f *SnapshotFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	d := memsim.CloneTarget[SnapshotFrame](dst)
	out := d.out
	*d = *f
	if cap(out) < len(f.out) {
		out = make([]memsim.Value, 0, f.reg.cap)
	}
	d.out = append(out[:0], f.out...)
	return d
}
