package memsim

// Frame storage for the backtracking engines. A DFS node expansion starts
// calls, ends calls and snapshots/restores every process's frame; if each
// of those minted or dropped a heap frame, frames would dominate the
// engines' allocations. FrameSet keeps one frame's storage per process
// alive across calls: a call end or a crash only marks the slot idle, the
// next call start copies a pristine template into the retained storage,
// and copying a whole set into another (snapshot and restore) reuses the
// destination's storage through each frame's CloneInto. Once every slot has
// held a frame of each type it runs, none of the three operations
// allocates.

// FrameTemplates caches one pristine frame per (pid, kind) of a deployed
// instance, minted by ResumableProgram on first use. A template is never
// run: calls start from a copy of it. That is sound because
// ResumableProgram is a pure function of (pid, kind) on a deployed
// instance (see Instance).
type FrameTemplates struct {
	inst Instance
	tmpl [][]Resumable // [pid][kind]; nil until first minted
}

// NewFrameTemplates returns an empty template cache for inst's n processes.
func NewFrameTemplates(inst Instance, n int) *FrameTemplates {
	return &FrameTemplates{inst: inst, tmpl: make([][]Resumable, n)}
}

// reset drops t's templates and readies it for inst's n processes,
// keeping the row storage. Rows past the length are always empty: they
// were emptied when the length last covered them.
func (t *FrameTemplates) reset(inst Instance, n int) {
	for _, row := range t.tmpl {
		clear(row)
	}
	t.inst = inst
	t.tmpl = resize(t.tmpl, n)
}

// template returns the pristine frame for (p, kind), minting it once.
// ResumableProgram errors are returned, not cached.
func (t *FrameTemplates) template(p PID, kind CallKind) (Resumable, error) {
	row := t.tmpl[p]
	if int(kind) < len(row) && row[kind] != nil {
		return row[kind], nil
	}
	r, err := t.inst.ResumableProgram(p, kind)
	if err != nil {
		return nil, err
	}
	if int(kind) >= len(row) {
		row = append(row, make([]Resumable, int(kind)+1-len(row))...)
		t.tmpl[p] = row
	}
	row[kind] = r
	return r, nil
}

// Frames is a deployment's frame storage: the (pid, kind) templates of its
// instance and the per-process slots its calls run in. Reset readies it
// for the next deployment and keeps the storage of the last, so an owner
// that outlives its deployments (a pooled Execution or harness workload)
// grows no template row or slot once warm, and a call copies into the
// storage of the slot's last frame whenever that frame has its type.
type Frames struct {
	tmpl FrameTemplates
	set  FrameSet
}

// Reset readies f for inst's n processes, every slot idle and no template
// minted. Reset(nil, 0) drops every template, so that a pooled owner
// keeps no instance alive.
func (f *Frames) Reset(inst Instance, n int) {
	f.tmpl.reset(inst, n)
	f.set.reset(n)
}

// Start begins a call of kind on p: the (p, kind) template, minted on
// first use, is copied into p's slot, which becomes p's live frame.
func (f *Frames) Start(p PID, kind CallKind) error { return f.set.Start(&f.tmpl, p, kind) }

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

// reset readies s as n idle slots, keeping the storage of an earlier
// deployment: a kept frame is only ever copied into (see fill), so it
// carries nothing of that deployment into this one.
func (s *FrameSet) reset(n int) {
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

// Start begins a call of kind on p: the (p, kind) template is copied into
// p's retained storage, which becomes p's live frame.
func (s *FrameSet) Start(t *FrameTemplates, p PID, kind CallKind) error {
	tmpl, err := t.template(p, kind)
	if err != nil {
		return err
	}
	s.fill(int(p), tmpl)
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
