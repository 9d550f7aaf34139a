package memsim

// Frame storage for the backtracking engines. A DFS node expansion starts
// calls, ends calls and snapshots/restores every process's frame; if each
// of those minted or dropped a heap frame, frames would dominate the
// engines' allocations. FrameSet keeps one frame's storage per process
// alive across calls: a call end or a crash only marks the slot idle, the
// next call start copies a pristine template into the retained storage,
// and copying a whole set into another (snapshot and restore) reuses the
// destination's storage through CloneResumableInto. Once every slot has
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
