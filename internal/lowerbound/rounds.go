package lowerbound

import (
	"fmt"
	"sort"

	"repro/internal/memsim"
)

// run executes the full construction: Part 1 rounds, the Lemma 6.11 census,
// and the Part 2 goose chase, returning whichever certificate it reaches
// first.
func (b *builder) run() (*Certificate, error) {
	rounds := b.cfg.Rounds
	if rounds < 0 {
		rounds = 0 // simplified Section 7 bound: Part 2 only
	} else if rounds < b.cfg.C+1 {
		// One extra round lets the per-round early exit catch algorithms
		// with unbounded per-process RMRs (e.g. remote spinning).
		rounds = b.cfg.C + 1
	}
	for i := 1; i <= rounds; i++ {
		cert, err := b.round(i)
		if err != nil {
			return nil, err
		}
		if cert != nil {
			return cert, nil
		}
		if len(b.active) == 0 {
			break
		}
	}
	return b.part2()
}

// round constructs H_i from H_{i-1} (Section 6.2). It returns a non-nil
// certificate when the construction short-circuits: a per-round amortized
// blow-up, a safety violation, or a non-terminating call.
func (b *builder) round(i int) (*Certificate, error) {
	report := RoundReport{Round: i}
	erasedBefore := len(b.active)

	// Step 1: run every active process to its next RMR or to stability.
	pending := make(map[memsim.PID]memsim.Access)
	for _, p := range b.activeSorted() {
		if b.stable[p] {
			continue
		}
		status, err := b.advance(p)
		if err != nil {
			return nil, err
		}
		switch status {
		case advUnstable:
			acc, _ := b.exec.Pending(p)
			pending[p] = acc
		case advStable:
			// parked idle; nothing to do
		case advSafety:
			return b.certSafety()
		case advStuck:
			return b.certNonTerminating(fmt.Sprintf("Poll by p%d did not finish within the solo budget", p))
		}
	}

	if len(pending) == 0 {
		b.lastCase = "all-stable"
	} else {
		// Step 2: resolve sees/touches conflicts (regularity conditions
		// 1-2) by keeping an independent set of the conflict graph.
		g := newConflictGraph(b.activeSorted())
		for p, acc := range pending {
			for _, q := range b.pendingTargets(p, acc) {
				g.addEdge(p, q)
			}
		}
		if g.edges() > 0 {
			keep := g.independentSet()
			keepSet := make(map[memsim.PID]bool, len(keep))
			for _, p := range keep {
				keepSet[p] = true
			}
			var victims []memsim.PID
			for _, p := range b.activeSorted() {
				if !keepSet[p] {
					victims = append(victims, p)
					delete(pending, p)
				}
			}
			b.logf("round %d: sees/touches conflicts: erasing %d of %d active", i, len(victims), erasedBefore)
			if err := b.erase(victims...); err != nil {
				return nil, err
			}
		}

		// Step 3: apply pending reads (they cannot break regularity now).
		for _, p := range sortedKeys(pending) {
			if classify(pending[p].Op) == classRead {
				if _, err := b.exec.Step(p); err != nil {
					return nil, err
				}
				delete(pending, p)
			}
		}

		// Step 4: handle pending writes and RMWs.
		if cert, err := b.applyWrites(i, pending); err != nil || cert != nil {
			return cert, err
		}
	}

	// Step 5: per-round early exit — if keeping a single expensive active
	// process already witnesses amortized cost above c, finish now.
	if cert, err := b.tryEarlyExit(); err != nil || cert != nil {
		return cert, err
	}

	report.Active = len(b.active)
	report.Erased = erasedBefore - len(b.active)
	report.Finished = len(b.finished)
	for p := range b.active {
		if b.stable[p] {
			report.Stable++
		}
	}
	if report.Case == "" {
		report.Case = b.lastCase
	}
	b.lastCase = ""
	b.rounds = append(b.rounds, report)
	b.logf("round %d: active=%d stable=%d finished=%d", i, report.Active, report.Stable, report.Finished)
	return nil, nil
}

// applyWrites implements the roll-forward and erasing cases of Section 6.2
// for the pending non-read accesses.
func (b *builder) applyWrites(round int, pending map[memsim.PID]memsim.Access) (*Certificate, error) {
	if len(pending) == 0 {
		return nil, nil
	}

	// RMW operations read the previous value, so two RMWs applied to the
	// same variable would make the later see the earlier. Keep only the
	// lowest-PID RMW per variable (a conservative extension of the paper's
	// read/write treatment; see package comment).
	rmwByAddr := make(map[memsim.Addr][]memsim.PID)
	for p, acc := range pending {
		if classify(acc.Op) == classRMW {
			rmwByAddr[acc.Addr] = append(rmwByAddr[acc.Addr], p)
		}
	}
	var rmwVictims []memsim.PID
	for _, ps := range rmwByAddr {
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
		for _, p := range ps[1:] {
			rmwVictims = append(rmwVictims, p)
			delete(pending, p)
		}
	}
	if len(rmwVictims) > 0 {
		b.logf("round %d: same-variable RMW pile-up: erasing %d", round, len(rmwVictims))
		if err := b.erase(rmwVictims...); err != nil {
			return nil, err
		}
	}

	// Partition plain writes by target variable.
	writersOf := make(map[memsim.Addr][]memsim.PID)
	for p, acc := range pending {
		if classify(acc.Op) == classWrite {
			writersOf[acc.Addr] = append(writersOf[acc.Addr], p)
		}
	}
	unstable := len(pending)
	threshold := b.cfg.RollThreshold
	if threshold == 0 {
		threshold = isqrt(unstable)
	}
	if threshold < 2 {
		threshold = 2
	}

	// Roll-forward case: some variable draws at least ⌊√X⌋ writers. Ties
	// go to the lowest address.
	var hot memsim.Addr
	hotCount := 0
	for a, ps := range writersOf {
		if len(ps) > hotCount || len(ps) == hotCount && a < hot {
			hot, hotCount = a, len(ps)
		}
	}
	if hotCount >= threshold {
		b.lastCase = "roll-forward"
		writers := writersOf[hot]
		sort.Slice(writers, func(i, j int) bool { return writers[i] < writers[j] })
		keep := make(map[memsim.PID]bool, len(writers))
		for _, p := range writers {
			keep[p] = true
		}
		var victims []memsim.PID
		for p := range pending {
			if !keep[p] {
				victims = append(victims, p)
			}
		}
		b.logf("round %d: roll-forward on %s: %d writers, erasing %d other unstable",
			round, b.exec.Machine().Name(hot), hotCount, len(victims))
		if err := b.erase(victims...); err != nil {
			return nil, err
		}
		for _, p := range writers {
			if _, err := b.exec.Step(p); err != nil {
				return nil, err
			}
		}
		// The last writer is rolled forward: it completes its call and
		// terminates, erasing any active process it is about to see or
		// touch on the way.
		r := writers[len(writers)-1]
		return b.rollForward(round, r)
	}

	// Erasing case: writes hit (mostly) distinct variables. Keep one
	// writer per variable, then resolve "writes a variable previously
	// written by an active process" conflicts via an independent set.
	b.lastCase = "erase"
	var victims []memsim.PID
	for _, ps := range writersOf {
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
		for _, p := range ps[1:] {
			victims = append(victims, p)
			delete(pending, p)
		}
	}
	if len(victims) > 0 {
		b.logf("round %d: erasing case: %d duplicate writers erased", round, len(victims))
		if err := b.erase(victims...); err != nil {
			return nil, err
		}
	}

	g := newConflictGraph(b.activeSorted())
	edges := 0
	m := b.exec.Machine()
	for p, acc := range pending {
		if classify(acc.Op) == classRead {
			continue
		}
		if w := m.LastWriter(acc.Addr); w != memsim.NoOwner && w != p && b.active[w] {
			g.addEdge(p, w)
			edges++
		}
	}
	if edges > 0 {
		keep := g.independentSet()
		keepSet := make(map[memsim.PID]bool, len(keep))
		for _, p := range keep {
			keepSet[p] = true
		}
		victims = victims[:0]
		for _, p := range b.activeSorted() {
			if !keepSet[p] {
				victims = append(victims, p)
				delete(pending, p)
			}
		}
		b.logf("round %d: prior-writer conflicts: erasing %d", round, len(victims))
		if err := b.erase(victims...); err != nil {
			return nil, err
		}
	}
	for _, p := range sortedKeys(pending) {
		if _, err := b.exec.Step(p); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// rollForward lets r complete its current Poll call and terminate, erasing
// every active process r is about to see or touch. If r's RMR bill exceeds
// c·(round+1), the early-exit certificate applies immediately.
func (b *builder) rollForward(round int, r memsim.PID) (*Certificate, error) {
	b.logf("round %d: rolling forward p%d", round, r)
	for steps := 0; steps <= b.cfg.SoloBudget; steps++ {
		if ret, done := b.exec.CallEnded(r); done {
			if _, err := b.exec.Finish(r); err != nil {
				return nil, err
			}
			if ret != 0 && b.violation == "" {
				b.violation = fmt.Sprintf("Poll by p%d returned true although no Signal call has begun", r)
				return b.certSafety()
			}
			delete(b.active, r)
			delete(b.stable, r)
			b.finished[r] = true
			return b.tryEarlyExit()
		}
		acc, ok := b.exec.Pending(r)
		if !ok {
			continue
		}
		if err := b.eraseTargets(r, acc); err != nil {
			return nil, err
		}
		if _, err := b.exec.Step(r); err != nil {
			return nil, err
		}
	}
	return b.certNonTerminating(fmt.Sprintf("rolled-forward p%d did not finish its Poll within the solo budget", r))
}

// eraseTargets erases, one at a time, every active process the pending
// access of p would see or touch, re-validating after each erasure (an
// erased writer may expose an older active writer underneath).
func (b *builder) eraseTargets(p memsim.PID, acc memsim.Access) error {
	for {
		targets := b.pendingTargets(p, acc)
		if len(targets) == 0 {
			return nil
		}
		if err := b.erase(targets[0]); err != nil {
			return err
		}
		// Determinism check: erasure must not change p's pending access.
		acc2, ok := b.exec.Pending(p)
		if !ok || acc2 != acc {
			return fmt.Errorf("lowerbound: erasing p%d changed p%d's pending access (%v -> %v)",
				targets[0], p, acc, acc2)
		}
	}
}

// tryEarlyExit checks whether keeping only the single most expensive active
// process (erasing all others, which is always legal for active processes
// in a regular history) already yields total RMRs > c·k. This generalizes
// the Lemma 6.11 counting argument and catches algorithms with unbounded
// worst-case RMRs, such as remote spinning.
func (b *builder) tryEarlyExit() (*Certificate, error) {
	per := b.led.rmrs
	finTotal := 0
	for p := range b.finished {
		finTotal += per[p]
	}
	best := memsim.PID(-1)
	for _, p := range b.activeSorted() { // ties go to the lowest PID
		if best == -1 || per[p] > per[best] {
			best = p
		}
	}
	k := len(b.finished)
	total := finTotal
	if best != -1 {
		k++
		total += per[best]
	}
	if k == 0 || total <= b.cfg.C*k {
		return nil, nil
	}
	// Build the witnessing history: erase every other active process.
	var victims []memsim.PID
	for p := range b.active {
		if p != best {
			victims = append(victims, p)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	if err := b.erase(victims...); err != nil {
		return nil, err
	}
	b.logf("early exit: k=%d total=%d > c*k=%d", k, total, b.cfg.C*k)
	return b.certificate(VerdictExceeded, -1, 0,
		fmt.Sprintf("per-round counting argument (Lemma 6.11 style): %d RMRs over %d participants", total, k))
}

func sortedKeys(m map[memsim.PID]memsim.Access) []memsim.PID {
	out := make([]memsim.PID, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
