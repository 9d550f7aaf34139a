package memsim

// Frame storage for the engines and the forward runs. A DFS node expansion
// starts calls, ends calls and snapshots/restores every process's frame;
// if each of those minted or dropped a heap frame, frames would dominate
// the engines' allocations. FrameSet keeps one frame's storage per process
// alive across calls: a call end or a crash only marks the slot idle, the
// next call start builds the pristine frame in the retained storage
// (Instance.ProgramInto), and copying a whole set into another (snapshot
// and restore) reuses the destination's storage through each frame's
// CloneInto. A slot whose frame has another type than the call or copy
// it receives sets that frame aside in its type's pool and takes one of
// the right type from there (CloneTarget), so once each frame type has
// been seen in as many slots at a time as it runs in, none of the three
// operations allocates, however often a slot changes type.

// Frames is a deployment's frame storage: its instance and the
// per-process slots its calls run in. Reset readies it for the next
// deployment and keeps the slots of the last, so an owner that outlives
// its deployments (a pooled Execution or harness workload) grows no slot
// once warm, and a call is built in the storage of the slot's last frame
// whenever that frame has its type, and in a set-aside frame of its type
// otherwise. A kept frame may still point at an
// earlier deployment's instance, but nothing reads it before ProgramInto
// has overwritten it whole.
type Frames struct {
	inst Instance
	set  FrameSet
}

// Reset readies f for inst's n processes, every slot idle. Reset(nil, 0)
// drops the instance, so that a pooled owner keeps no reference to it
// beyond the idle slots' storage.
func (f *Frames) Reset(inst Instance, n int) {
	f.inst = inst
	f.set.Reset(n)
}

// Start begins a call of kind on p: the instance builds the call's
// pristine frame in p's slot, which becomes p's live frame.
func (f *Frames) Start(p PID, kind CallKind) error { return f.set.Start(f.inst, p, kind) }

// Frame returns p's in-flight frame, or nil while p is idle.
func (f *Frames) Frame(p PID) Resumable { return f.set.live[p] }

// Drop idles p's slot after its call completed or crashed.
func (f *Frames) Drop(p PID) { f.set.Drop(p) }

// DropAll idles every slot.
func (f *Frames) DropAll() { clear(f.set.live) }

// FrameSet is one per-process set of frame slots: an engine's live frames
// or one node snapshot's copies of them. A slot is nil while its process
// is idle. Its storage outlives the call, so the next start or copy into
// the slot recycles it. Storage is owned by exactly one set: a copy never
// aliases the source's frames.
type FrameSet struct {
	live  []Resumable // in-flight frame per process; nil while idle
	store []Resumable // retained storage; live[p] is nil or store[p]
}

// NewFrameSet returns n idle slots.
func NewFrameSet(n int) FrameSet {
	return FrameSet{live: make([]Resumable, n), store: make([]Resumable, n)}
}

// Reset readies s as n idle slots, keeping the storage of an earlier
// deployment: a kept frame is only ever built or copied into whole (see
// Start and fill), so it carries nothing of that deployment into this one.
func (s *FrameSet) Reset(n int) {
	s.live = resize(s.live, n)
	clear(s.live)
	s.store = resize(s.store, n)
}

// resize returns s with length n, keeping its elements (those beyond its
// length included, up to its capacity) and zero-extending past them.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// Frame returns p's in-flight frame, or nil while p is idle.
func (s *FrameSet) Frame(p PID) Resumable { return s.live[p] }

// Start begins a call of kind on p: inst builds the call's pristine frame
// in p's retained storage, which becomes p's live frame. On an error the
// slot is left as it was.
func (s *FrameSet) Start(inst Instance, p PID, kind CallKind) error {
	r, err := inst.ProgramInto(s.store[p], p, kind)
	if err != nil {
		return err
	}
	s.store[p], s.live[p] = r, r
	return nil
}

// Drop idles p's slot after a call completes or crashes. The frame stays
// as storage for p's next start or copy.
func (s *FrameSet) Drop(p PID) { s.live[p] = nil }

// CopyFrom makes every slot of s an independent copy of the same slot of
// src: idle slots go idle, live frames are copied into s's retained
// storage.
func (s *FrameSet) CopyFrom(src *FrameSet) {
	for i, f := range src.live {
		if f == nil {
			s.live[i] = nil
		} else {
			s.fill(i, f)
		}
	}
}

// fill copies src into slot i's storage (a fresh clone when the storage is
// empty or of another type) and makes it live.
func (s *FrameSet) fill(i int, src Resumable) {
	r := CloneResumableInto(s.store[i], src)
	s.store[i], s.live[i] = r, r
}
