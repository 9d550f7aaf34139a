package signal

import (
	"encoding/binary"

	"repro/internal/memsim"
	"repro/internal/queue"
)

// This file holds the frames of the flag, single-waiter, fixed-waiters,
// registered-waiters, queue, CAS and LL/SC registration and multi-signaler
// algorithms, several of which share a frame type; each algorithm's
// ProgramInto, in its own file, picks them. A frame is an explicit
// state machine (a memsim.Resumable) that the controller dispatches inline
// with zero goroutines and zero channel operations. framegolden_test.go
// pins the traces they produce.
//
// Frame discipline (see memsim.Resumable): all mutable call-local state
// lives in frame fields; pointers reference only immutable deployment data
// (instances, address slices). Most frames copy with memsim.CopyFrame and
// start with memsim.BuildFrame; frames holding sub-frames or buffers copy
// those in their CloneInto, so snapshots stay independent, and rebuild
// them in place when a call starts in their storage.

// readRetFrame reads one word and returns its value (flag Poll,
// fixed-waiters Poll).
type readRetFrame struct {
	addr memsim.Addr
	pc   uint8
	ret  memsim.Value
}

func (f *readRetFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	if f.pc == 0 {
		f.pc = 1
		return memsim.AccRead(f.addr), true
	}
	f.ret = prev.Val
	return memsim.Access{}, false
}

func (f *readRetFrame) Return() memsim.Value { return f.ret }

func (f *readRetFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

func (f *readRetFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.addr))
	dst = append(dst, f.pc)
	return binary.AppendVarint(dst, int64(f.ret))
}

// writeOneFrame performs a single write and returns 0 (flag Signal).
type writeOneFrame struct {
	addr memsim.Addr
	val  memsim.Value
	pc   uint8
}

func (f *writeOneFrame) Next(memsim.Result) (memsim.Access, bool) {
	if f.pc == 0 {
		f.pc = 1
		return memsim.AccWrite(f.addr, f.val), true
	}
	return memsim.Access{}, false
}

func (f *writeOneFrame) Return() memsim.Value { return 0 }

func (f *writeOneFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

func (f *writeOneFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.addr))
	dst = binary.AppendVarint(dst, int64(f.val))
	return append(dst, f.pc)
}

// spinNonzeroFrame busy-waits until a word reads nonzero (flag Wait,
// fixed-waiters Wait — the local or remote spin the models price apart).
type spinNonzeroFrame struct {
	addr memsim.Addr
	pc   uint8
}

func (f *spinNonzeroFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	if f.pc == 0 {
		f.pc = 1
		return memsim.AccRead(f.addr), true
	}
	if prev.Val == 0 {
		return memsim.AccRead(f.addr), true
	}
	return memsim.Access{}, false
}

func (f *spinNonzeroFrame) Return() memsim.Value { return 0 }

func (f *spinNonzeroFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

func (f *spinNonzeroFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.addr))
	return append(dst, f.pc)
}

// writeFanFrame writes 1 to each address in order and returns 0
// (fixed-waiters Signal: the O(W) broadcast).
type writeFanFrame struct {
	addrs []memsim.Addr
	j     int
}

func (f *writeFanFrame) Next(memsim.Result) (memsim.Access, bool) {
	if f.j >= len(f.addrs) {
		return memsim.Access{}, false
	}
	a := f.addrs[f.j]
	f.j++
	return memsim.AccWrite(a, 1), true
}

func (f *writeFanFrame) Return() memsim.Value { return 0 }

// appendAddrs length-prefixes an address slice into a binary frame
// encoding; the slice is immutable deployment data, but its contents vary
// per frame value (per-pid address rows), so the key must include them just
// as the element-wise field walk does.
func appendAddrs(dst []byte, addrs []memsim.Addr) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(addrs)))
	for _, a := range addrs {
		dst = binary.AppendVarint(dst, int64(a))
	}
	return dst
}

func (f *writeFanFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

func (f *writeFanFrame) AppendState(dst []byte) []byte {
	dst = appendAddrs(dst, f.addrs)
	return binary.AppendVarint(dst, int64(f.j))
}

// announcePollFrame is the shared first-call-announcement Poll shape of the
// single-waiter, fixed-waiters-terminating and registered-waiters
// algorithms: on the first call, clear the first-call flag, write an
// announcement word, and return a status read; on later calls return the
// local flag.
//
//	if read(fst) == 1 { write(fst, 0); write(ann, annVal); return read(then) }
//	return read(els)
type announcePollFrame struct {
	fst    memsim.Addr
	ann    memsim.Addr
	annVal memsim.Value
	then   memsim.Addr
	els    memsim.Addr
	pc     uint8
	ret    memsim.Value
}

func (f *announcePollFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	switch f.pc {
	case 0:
		f.pc = 1
		return memsim.AccRead(f.fst), true
	case 1:
		if prev.Val == 1 {
			f.pc = 2
			return memsim.AccWrite(f.fst, 0), true
		}
		f.pc = 4
		return memsim.AccRead(f.els), true
	case 2:
		f.pc = 3
		return memsim.AccWrite(f.ann, f.annVal), true
	case 3:
		f.pc = 4
		return memsim.AccRead(f.then), true
	default:
		f.ret = prev.Val
		return memsim.Access{}, false
	}
}

func (f *announcePollFrame) Return() memsim.Value { return f.ret }

func (f *announcePollFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

func (f *announcePollFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.fst))
	dst = binary.AppendVarint(dst, int64(f.ann))
	dst = binary.AppendVarint(dst, int64(f.annVal))
	dst = binary.AppendVarint(dst, int64(f.then))
	dst = binary.AppendVarint(dst, int64(f.els))
	dst = append(dst, f.pc)
	return binary.AppendVarint(dst, int64(f.ret))
}

// ---- flag (Section 5) ----

// ---- single waiter (Section 7) ----

// swSignalFrame: S := true; w := W; if w != NIL { V[w] := true }.
type swSignalFrame struct {
	s  memsim.Addr
	w  memsim.Addr
	v  []memsim.Addr
	pc uint8
}

func (f *swSignalFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	switch f.pc {
	case 0:
		f.pc = 1
		return memsim.AccWrite(f.s, 1), true
	case 1:
		f.pc = 2
		return memsim.AccRead(f.w), true
	case 2:
		if prev.Val == memsim.Nil {
			return memsim.Access{}, false
		}
		f.pc = 3
		return memsim.AccWrite(f.v[prev.Val], 1), true
	default:
		return memsim.Access{}, false
	}
}

func (f *swSignalFrame) Return() memsim.Value { return 0 }

func (f *swSignalFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

func (f *swSignalFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.s))
	dst = binary.AppendVarint(dst, int64(f.w))
	dst = appendAddrs(dst, f.v)
	return append(dst, f.pc)
}

// swWaitFrame mirrors the single-waiter Wait: first-call announcement, a
// status check, then the local spin on V[i].
type swWaitFrame struct {
	in *singleWaiterInstance
	i  int
	pc uint8
}

func (f *swWaitFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	switch f.pc {
	case 0:
		f.pc = 1
		return memsim.AccRead(f.in.first[f.i]), true
	case 1:
		if prev.Val == 1 {
			f.pc = 2
			return memsim.AccWrite(f.in.first[f.i], 0), true
		}
		f.pc = 5
		return memsim.AccRead(f.in.v[f.i]), true
	case 2:
		f.pc = 3
		return memsim.AccWrite(f.in.w, memsim.Value(f.i)), true
	case 3:
		f.pc = 4
		return memsim.AccRead(f.in.s), true
	case 4:
		if prev.Val == 1 {
			return memsim.Access{}, false
		}
		f.pc = 6
		return memsim.AccRead(f.in.v[f.i]), true
	case 5:
		if prev.Val == 1 {
			return memsim.Access{}, false
		}
		f.pc = 6
		return memsim.AccRead(f.in.v[f.i]), true
	default: // local spin on V[i]
		if prev.Val == 0 {
			return memsim.AccRead(f.in.v[f.i]), true
		}
		return memsim.Access{}, false
	}
}

func (f *swWaitFrame) Return() memsim.Value { return 0 }

func (f *swWaitFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

func (f *swWaitFrame) AppendState(dst []byte) []byte {
	// f.in is immutable deployment data: the field walk renders it as a
	// per-type constant, so the binary key rightly omits it.
	dst = binary.AppendVarint(dst, int64(f.i))
	return append(dst, f.pc)
}

// ---- fixed waiters (Section 7) ----

// ---- fixed waiters, terminating refinement (Section 7) ----

// ftSignalFrame: for each fixed waiter j, busy-wait (locally) for its
// participation flag, then write its V[j].
type ftSignalFrame struct {
	in *fixedTermInstance
	j  int
	pc uint8
}

func (f *ftSignalFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	for {
		switch f.pc {
		case 0: // loop head: next waiter or done
			if f.j >= len(f.in.v)-1 {
				return memsim.Access{}, false
			}
			f.pc = 1
			return memsim.AccRead(f.in.present[f.j]), true
		case 1: // spinning on Present[j]
			if prev.Val == 0 {
				return memsim.AccRead(f.in.present[f.j]), true
			}
			f.pc = 2
			return memsim.AccWrite(f.in.v[f.j], 1), true
		default: // V[j] written; advance
			f.j++
			f.pc = 0
		}
	}
}

func (f *ftSignalFrame) Return() memsim.Value { return 0 }

func (f *ftSignalFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

func (f *ftSignalFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.j))
	return append(dst, f.pc)
}

// ---- registered waiters (Section 7) ----

// regSignalFrame: S := true; for each i: if R[i] (local) { V[i] := true }.
type regSignalFrame struct {
	in *registeredInstance
	j  int
	pc uint8
}

func (f *regSignalFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			return memsim.AccWrite(f.in.s, 1), true
		case 1: // loop head over registration flags
			if f.j >= len(f.in.r) {
				return memsim.Access{}, false
			}
			if memsim.PID(f.j) == f.in.sig {
				f.j++
				continue
			}
			f.pc = 2
			return memsim.AccRead(f.in.r[f.j]), true
		default: // registration flag read: deliver if registered, advance
			if prev.Val == 1 {
				a := memsim.AccWrite(f.in.v[f.j], 1)
				f.j++
				f.pc = 1
				return a, true
			}
			f.j++
			f.pc = 1
		}
	}
}

func (f *regSignalFrame) Return() memsim.Value { return 0 }

func (f *regSignalFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

func (f *regSignalFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.j))
	return append(dst, f.pc)
}

// ---- F&I queue (Section 7) ----

// registerPollFrame is the F&I-registration Poll shared by the queue and
// multi-signaler algorithms: first call registers through the registry
// sub-frame and returns the global S; later calls return the local V[i].
type registerPollFrame struct {
	fst memsim.Addr
	vi  memsim.Addr
	s   memsim.Addr
	sub *queue.RegisterFrame
	pc  uint8
	ret memsim.Value
}

func (f *registerPollFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	switch f.pc {
	case 0:
		f.pc = 1
		return memsim.AccRead(f.fst), true
	case 1:
		if prev.Val == 1 {
			f.pc = 2
			return memsim.AccWrite(f.fst, 0), true
		}
		f.pc = 4
		return memsim.AccRead(f.vi), true
	case 2: // enter the registration sub-frame
		acc, _ := f.sub.Next(memsim.Result{})
		f.pc = 3
		return acc, true
	case 3: // drive the registration sub-frame to completion
		if acc, ok := f.sub.Next(prev); ok {
			return acc, true
		}
		f.pc = 4
		return memsim.AccRead(f.s), true
	default:
		f.ret = prev.Val
		return memsim.Access{}, false
	}
}

func (f *registerPollFrame) Return() memsim.Value { return f.ret }

// registerPollInto builds the pristine registering Poll of value v in
// dst, keeping dst's registration sub-frame when it has one.
func registerPollInto(dst memsim.Resumable, fst, vi, s memsim.Addr, reg *queue.Registry, v memsim.Value) *registerPollFrame {
	d := memsim.CloneTarget[registerPollFrame](dst)
	*d = registerPollFrame{fst: fst, vi: vi, s: s, sub: reg.RegisterResumable(d.sub, v)}
	return d
}

// CloneInto implements memsim.Resumable: the registration sub-frame is
// copied, not shared, into dst's sub-frame storage when it has one.
func (f *registerPollFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	d := memsim.CloneTarget[registerPollFrame](dst)
	sub := d.sub
	*d = *f
	if f.sub != nil {
		d.sub = f.sub.CloneInto(sub).(*queue.RegisterFrame)
	}
	return d
}

// AppendState implements memsim.StateAppender: the sub-frame encodes by
// content, never by pointer.
func (f *registerPollFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.fst))
	dst = binary.AppendVarint(dst, int64(f.vi))
	dst = binary.AppendVarint(dst, int64(f.s))
	dst = binary.AppendUvarint(dst, uint64(f.pc))
	dst = binary.AppendVarint(dst, int64(f.ret))
	return memsim.AppendFrameState(dst, f.sub)
}

// registrySignalFrame: S := true; snapshot the registry; flag every
// registered waiter (queue Signal, and the elected branch's delivery logic).
type registrySignalFrame struct {
	s    memsim.Addr
	v    []memsim.Addr
	snap *queue.SnapshotFrame
	vals []memsim.Value
	k    int
	pc   uint8
}

func (f *registrySignalFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			return memsim.AccWrite(f.s, 1), true
		case 1: // enter the snapshot sub-frame
			acc, _ := f.snap.Next(memsim.Result{})
			f.pc = 2
			return acc, true
		case 2: // drive the snapshot sub-frame to completion
			if acc, ok := f.snap.Next(prev); ok {
				return acc, true
			}
			f.vals = f.snap.Vals()
			f.k = 0
			f.pc = 3
		default: // deliver to each registered waiter
			if f.k >= len(f.vals) {
				return memsim.Access{}, false
			}
			q := f.vals[f.k]
			f.k++
			return memsim.AccWrite(f.v[q], 1), true
		}
	}
}

func (f *registrySignalFrame) Return() memsim.Value { return 0 }

// registrySignalInto builds the pristine registry Signal in dst, keeping
// dst's snapshot sub-frame and its value buffer when it has them.
func registrySignalInto(dst memsim.Resumable, s memsim.Addr, v []memsim.Addr, reg *queue.Registry) *registrySignalFrame {
	d := memsim.CloneTarget[registrySignalFrame](dst)
	*d = registrySignalFrame{s: s, v: v, snap: reg.SnapshotResumable(d.snap)}
	return d
}

// CloneInto implements memsim.Resumable, reusing dst's snapshot sub-frame
// and its value buffer. vals aliases the snapshot's buffer, so it is
// re-aliased to the copy's.
func (f *registrySignalFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	d := memsim.CloneTarget[registrySignalFrame](dst)
	snap := d.snap
	*d = *f
	if f.snap != nil {
		d.snap = f.snap.CloneInto(snap).(*queue.SnapshotFrame)
		if f.vals != nil {
			d.vals = d.snap.Vals()
		}
	}
	return d
}

// AppendState implements memsim.StateAppender. vals is fully populated
// the moment it is assigned (the snapshot sub-frame completed), so
// encoding all of it is canonical; the sub-frame encodes by content.
func (f *registrySignalFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.s))
	dst = binary.AppendVarint(dst, int64(f.k))
	dst = binary.AppendUvarint(dst, uint64(f.pc))
	dst = binary.AppendUvarint(dst, uint64(len(f.vals)))
	for _, v := range f.vals {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return memsim.AppendFrameState(dst, f.snap)
}

// ---- CAS slot registration (Corollary 6.14 subject) ----

// casPollFrame: first call CAS-claims the first free slot (O(k) for the
// k-th registrant), then returns S; later calls return the local V[i].
type casPollFrame struct {
	in  *casRegisterInstance
	i   int
	j   int
	pc  uint8
	ret memsim.Value
}

func (f *casPollFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			return memsim.AccRead(f.in.fst[f.i]), true
		case 1:
			if prev.Val == 1 {
				f.pc = 2
				return memsim.AccWrite(f.in.fst[f.i], 0), true
			}
			f.pc = 5
			return memsim.AccRead(f.in.v[f.i]), true
		case 2: // slot scan loop head
			if f.j >= f.in.n {
				f.pc = 5
				return memsim.AccRead(f.in.s), true
			}
			f.pc = 3
			return memsim.AccCAS(f.in.q+memsim.Addr(f.j), memsim.Nil, memsim.Value(f.i)), true
		case 3: // CAS result
			if prev.OK {
				f.pc = 5
				return memsim.AccRead(f.in.s), true
			}
			f.j++
			f.pc = 2
		default:
			f.ret = prev.Val
			return memsim.Access{}, false
		}
	}
}

func (f *casPollFrame) Return() memsim.Value { return f.ret }

func (f *casPollFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

func (f *casPollFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.i))
	dst = binary.AppendVarint(dst, int64(f.j))
	dst = append(dst, f.pc)
	return binary.AppendVarint(dst, int64(f.ret))
}

// slotScanSignalFrame: S := true; scan the registered prefix of the slot
// array, flagging each registrant, stopping at the first NIL slot (the
// cas-register and llsc-register Signal).
type slotScanSignalFrame struct {
	s  memsim.Addr
	q  memsim.Addr
	n  int
	v  []memsim.Addr
	j  int
	pc uint8
}

func (f *slotScanSignalFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			return memsim.AccWrite(f.s, 1), true
		case 1: // scan loop head
			if f.j >= f.n {
				return memsim.Access{}, false
			}
			f.pc = 2
			return memsim.AccRead(f.q + memsim.Addr(f.j)), true
		default: // slot read
			if prev.Val == memsim.Nil {
				return memsim.Access{}, false
			}
			a := memsim.AccWrite(f.v[prev.Val], 1)
			f.j++
			f.pc = 1
			return a, true
		}
	}
}

func (f *slotScanSignalFrame) Return() memsim.Value { return 0 }

func (f *slotScanSignalFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

func (f *slotScanSignalFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.s))
	dst = binary.AppendVarint(dst, int64(f.q))
	dst = binary.AppendVarint(dst, int64(f.n))
	dst = appendAddrs(dst, f.v)
	dst = binary.AppendVarint(dst, int64(f.j))
	return append(dst, f.pc)
}

// ---- LL/SC slot registration (Corollary 6.14 subject) ----

// llscPollFrame mirrors the LL/SC slot claim: LL a slot; advance past
// non-NIL slots; SC to claim; a failed SC re-examines the same slot.
type llscPollFrame struct {
	in  *llscRegisterInstance
	i   int
	j   int
	pc  uint8
	ret memsim.Value
}

func (f *llscPollFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			return memsim.AccRead(f.in.fst[f.i]), true
		case 1:
			if prev.Val == 1 {
				f.pc = 2
				return memsim.AccWrite(f.in.fst[f.i], 0), true
			}
			f.pc = 6
			return memsim.AccRead(f.in.v[f.i]), true
		case 2: // claim loop head
			if f.j >= f.in.n {
				f.pc = 6
				return memsim.AccRead(f.in.s), true
			}
			f.pc = 3
			return memsim.AccLL(f.in.q + memsim.Addr(f.j)), true
		case 3: // LL result
			if prev.Val != memsim.Nil {
				f.j++ // slot taken: advance
				f.pc = 2
				continue
			}
			f.pc = 4
			return memsim.AccSC(f.in.q+memsim.Addr(f.j), memsim.Value(f.i)), true
		case 4: // SC result
			if prev.OK {
				f.pc = 6
				return memsim.AccRead(f.in.s), true
			}
			f.pc = 2 // SC lost a race: re-examine the same slot
		default:
			f.ret = prev.Val
			return memsim.Access{}, false
		}
	}
}

func (f *llscPollFrame) Return() memsim.Value { return f.ret }

func (f *llscPollFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

func (f *llscPollFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.i))
	dst = binary.AppendVarint(dst, int64(f.j))
	dst = append(dst, f.pc)
	return binary.AppendVarint(dst, int64(f.ret))
}

// ---- multi-signaler (Section 7, TAS election) ----

// msSignalFrame: one TAS elects the delivering signaler; the winner runs
// the registry delivery and raises Done; losers busy-wait on Done.
type msSignalFrame struct {
	in      *multiSignalerInstance
	deliver registrySignalFrame
	pc      uint8
}

func (f *msSignalFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	switch f.pc {
	case 0:
		f.pc = 1
		return memsim.AccTAS(f.in.elect), true
	case 1: // election result
		if prev.OK {
			f.pc = 2
			acc, _ := f.deliver.Next(memsim.Result{})
			return acc, true
		}
		f.pc = 4
		return memsim.AccRead(f.in.done), true
	case 2: // elected: drive the delivery sub-frame
		if acc, ok := f.deliver.Next(prev); ok {
			return acc, true
		}
		f.pc = 3
		return memsim.AccWrite(f.in.done, 1), true
	case 3: // Done raised
		return memsim.Access{}, false
	default: // lost the election: await Done
		if prev.Val == 0 {
			return memsim.AccRead(f.in.done), true
		}
		return memsim.Access{}, false
	}
}

func (f *msSignalFrame) Return() memsim.Value { return 0 }

// CloneInto implements memsim.Resumable, reusing dst's delivery storage.
func (f *msSignalFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	d := memsim.CloneTarget[msSignalFrame](dst)
	deliver := d.deliver
	*d = *f
	d.deliver = deliver
	f.deliver.CloneInto(&d.deliver)
	return d
}

// AppendState implements memsim.StateAppender.
func (f *msSignalFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(f.pc))
	return f.deliver.AppendState(dst)
}

// Static checks: every frame of this file has its own encoding.
var (
	_ memsim.StateAppender = (*registerPollFrame)(nil)
	_ memsim.StateAppender = (*registrySignalFrame)(nil)
	_ memsim.StateAppender = (*msSignalFrame)(nil)
	_ memsim.StateAppender = (*readRetFrame)(nil)
	_ memsim.StateAppender = (*writeOneFrame)(nil)
	_ memsim.StateAppender = (*spinNonzeroFrame)(nil)
	_ memsim.StateAppender = (*writeFanFrame)(nil)
	_ memsim.StateAppender = (*announcePollFrame)(nil)
	_ memsim.StateAppender = (*swSignalFrame)(nil)
	_ memsim.StateAppender = (*swWaitFrame)(nil)
	_ memsim.StateAppender = (*ftSignalFrame)(nil)
	_ memsim.StateAppender = (*regSignalFrame)(nil)
	_ memsim.StateAppender = (*casPollFrame)(nil)
	_ memsim.StateAppender = (*slotScanSignalFrame)(nil)
	_ memsim.StateAppender = (*llscPollFrame)(nil)
)
