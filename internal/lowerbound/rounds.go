package lowerbound

import (
	"fmt"
	"slices"

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
	b.clearPending()
	for _, p := range b.active {
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
			b.addPending(p, acc)
		case advStable:
			// parked idle; nothing to do
		case advSafety:
			return b.certSafety()
		case advStuck:
			return b.certNonTerminating(fmt.Sprintf("Poll by p%d did not finish within the solo budget", p))
		}
	}

	if b.npend == 0 {
		b.lastCase = "all-stable"
	} else {
		// Step 2: resolve sees/touches conflicts (regularity conditions
		// 1-2) by keeping an independent set of the conflict graph.
		g := &b.graph
		g.reset(b.active)
		for _, p := range b.active {
			if !b.isPending[p] {
				continue
			}
			b.targets = b.appendTargets(b.targets[:0], p, b.pendAcc[p])
			for _, q := range b.targets {
				g.addEdge(p, q)
			}
		}
		if g.edges() > 0 {
			victims := b.outsideIndependentSet()
			if b.logging() {
				b.logf("round %d: sees/touches conflicts: erasing %d of %d active", i, len(victims), erasedBefore)
			}
			if err := b.erase(victims...); err != nil {
				return nil, err
			}
		}

		// Step 3: apply pending reads (they cannot break regularity now).
		for _, p := range b.active {
			if b.isPending[p] && classify(b.pendAcc[p].Op) == classRead {
				if _, err := b.exec.Step(p); err != nil {
					return nil, err
				}
				b.dropPending(p)
			}
		}

		// Step 4: handle pending writes and RMWs.
		if cert, err := b.applyWrites(i); err != nil || cert != nil {
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
	report.Finished = b.nfinished
	for _, p := range b.active {
		if b.stable[p] {
			report.Stable++
		}
	}
	if report.Case == "" {
		report.Case = b.lastCase
	}
	b.lastCase = ""
	b.rounds = append(b.rounds, report)
	if b.logging() {
		b.logf("round %d: active=%d stable=%d finished=%d", i, report.Active, report.Stable, report.Finished)
	}
	return nil, nil
}

// clearPending empties the round's pending set.
func (b *builder) clearPending() {
	clear(b.isPending)
	b.npend = 0
}

// addPending records p's pending access.
func (b *builder) addPending(p memsim.PID, acc memsim.Access) {
	b.pendAcc[p], b.isPending[p] = acc, true
	b.npend++
}

// dropPending removes p from the pending set (applied or erased).
func (b *builder) dropPending(p memsim.PID) {
	if b.isPending[p] {
		b.isPending[p] = false
		b.npend--
	}
}

// outsideIndependentSet chooses the conflict graph's independent set and
// returns, in ascending order, the active processes outside it, which
// leave the pending set; the caller erases them.
func (b *builder) outsideIndependentSet() []memsim.PID {
	g := &b.graph
	g.chooseIndependentSet()
	b.victims = b.victims[:0]
	for _, p := range b.active {
		if !g.in(p) {
			b.victims = append(b.victims, p)
			b.dropPending(p)
		}
	}
	return b.victims
}

// keepOnePerAddress keeps, for each address, the lowest-PID pending access
// of class c and drops the others from the pending set, returning them in
// ascending order.
func (b *builder) keepOnePerAddress(c opClass) []memsim.PID {
	b.victims = b.victims[:0]
	for _, p := range b.active {
		acc := b.pendAcc[p]
		if !b.isPending[p] || classify(acc.Op) != c {
			continue
		}
		if b.claimed[acc.Addr] {
			b.victims = append(b.victims, p)
			b.dropPending(p)
		} else {
			b.claimed[acc.Addr] = true
		}
	}
	for _, p := range b.active {
		if b.isPending[p] {
			b.claimed[b.pendAcc[p].Addr] = false
		}
	}
	return b.victims
}

// applyWrites implements the roll-forward and erasing cases of Section 6.2
// for the pending non-read accesses.
func (b *builder) applyWrites(round int) (*Certificate, error) {
	if b.npend == 0 {
		return nil, nil
	}

	// RMW operations read the previous value, so two RMWs applied to the
	// same variable would make the later see the earlier. Keep only the
	// lowest-PID RMW per variable (a conservative extension of the paper's
	// read/write treatment; see package comment).
	if rmwVictims := b.keepOnePerAddress(classRMW); len(rmwVictims) > 0 {
		if b.logging() {
			b.logf("round %d: same-variable RMW pile-up: erasing %d", round, len(rmwVictims))
		}
		if err := b.erase(rmwVictims...); err != nil {
			return nil, err
		}
	}

	// Count the plain writers of each variable.
	for _, p := range b.active {
		if acc := b.pendAcc[p]; b.isPending[p] && classify(acc.Op) == classWrite {
			b.nwriters[acc.Addr]++
		}
	}
	unstable := b.npend
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
	for _, p := range b.active {
		acc := b.pendAcc[p]
		if !b.isPending[p] || classify(acc.Op) != classWrite {
			continue
		}
		if c := int(b.nwriters[acc.Addr]); c > hotCount || c == hotCount && acc.Addr < hot {
			hot, hotCount = acc.Addr, c
		}
	}
	for _, p := range b.active {
		if b.isPending[p] {
			b.nwriters[b.pendAcc[p].Addr] = 0
		}
	}
	if hotCount >= threshold {
		b.lastCase = "roll-forward"
		writers, victims := b.writing[:0], b.victims[:0]
		for _, p := range b.active {
			if !b.isPending[p] {
				continue
			}
			if acc := b.pendAcc[p]; classify(acc.Op) == classWrite && acc.Addr == hot {
				writers = append(writers, p)
			} else {
				victims = append(victims, p)
			}
		}
		b.writing, b.victims = writers, victims
		if b.logging() {
			b.logf("round %d: roll-forward on %s: %d writers, erasing %d other unstable",
				round, b.exec.Machine().Name(hot), hotCount, len(victims))
		}
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
	if victims := b.keepOnePerAddress(classWrite); len(victims) > 0 {
		if b.logging() {
			b.logf("round %d: erasing case: %d duplicate writers erased", round, len(victims))
		}
		if err := b.erase(victims...); err != nil {
			return nil, err
		}
	}

	g := &b.graph
	g.reset(b.active)
	m := b.exec.Machine()
	for _, p := range b.active {
		acc := b.pendAcc[p]
		if !b.isPending[p] || classify(acc.Op) == classRead {
			continue
		}
		if w := m.LastWriter(acc.Addr); w != memsim.NoOwner && w != p && b.isActive[w] {
			g.addEdge(p, w)
		}
	}
	if g.edges() > 0 {
		victims := b.outsideIndependentSet()
		if b.logging() {
			b.logf("round %d: prior-writer conflicts: erasing %d", round, len(victims))
		}
		if err := b.erase(victims...); err != nil {
			return nil, err
		}
	}
	for _, p := range b.active {
		if !b.isPending[p] {
			continue
		}
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
	if b.logging() {
		b.logf("round %d: rolling forward p%d", round, r)
	}
	for steps := 0; steps <= b.cfg.SoloBudget; steps++ {
		if ret, done := b.exec.CallEnded(r); done {
			if _, err := b.exec.Finish(r); err != nil {
				return nil, err
			}
			if ret != 0 && b.violation == "" {
				b.violation = fmt.Sprintf("Poll by p%d returned true although no Signal call has begun", r)
				return b.certSafety()
			}
			b.active = slices.DeleteFunc(b.active, func(p memsim.PID) bool { return p == r })
			b.isActive[r], b.stable[r] = false, false
			b.finished[r] = true
			b.nfinished++
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
		b.targets = b.appendTargets(b.targets[:0], p, acc)
		if len(b.targets) == 0 {
			return nil
		}
		q := b.targets[0]
		if err := b.erase(q); err != nil {
			return err
		}
		// Determinism check: erasure must not change p's pending access.
		acc2, ok := b.exec.Pending(p)
		if !ok || acc2 != acc {
			return fmt.Errorf("lowerbound: erasing p%d changed p%d's pending access (%v -> %v)",
				q, p, acc, acc2)
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
	for p, fin := range b.finished {
		if fin {
			finTotal += per[p]
		}
	}
	best := memsim.PID(-1)
	for _, p := range b.active { // ties go to the lowest PID
		if best == -1 || per[p] > per[best] {
			best = p
		}
	}
	k := b.nfinished
	total := finTotal
	if best != -1 {
		k++
		total += per[best]
	}
	if k == 0 || total <= b.cfg.C*k {
		return nil, nil
	}
	// Build the witnessing history: erase every other active process.
	victims := b.victims[:0]
	for _, p := range b.active {
		if p != best {
			victims = append(victims, p)
		}
	}
	b.victims = victims
	if err := b.erase(victims...); err != nil {
		return nil, err
	}
	if b.logging() {
		b.logf("early exit: k=%d total=%d > c*k=%d", k, total, b.cfg.C*k)
	}
	return b.certificate(VerdictExceeded, -1, 0,
		fmt.Sprintf("per-round counting argument (Lemma 6.11 style): %d RMRs over %d participants", total, k))
}
