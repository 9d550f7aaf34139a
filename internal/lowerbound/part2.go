package lowerbound

import (
	"errors"
	"fmt"

	"repro/internal/memsim"
	"repro/internal/signal"
	"repro/internal/trace"
)

// part2 implements the Lemma 6.12/6.13 endgame: keep only stable waiters,
// pick a signaler s whose memory module the history never wrote, run
// Signal() solo while erasing every stable waiter s is about to see or
// touch, and then audit the survivors against Specification 4.1.
func (b *builder) part2() (*Certificate, error) {
	// Census: classify the remaining actives and erase the unstable ones
	// (Lemma 6.12 keeps only stable processes).
	unstable := b.victims[:0]
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
			unstable = append(unstable, p)
		case advStable:
		case advSafety:
			return b.certSafety()
		case advStuck:
			return b.certNonTerminating(fmt.Sprintf("Poll by p%d did not finish within the solo budget", p))
		}
	}
	b.victims = unstable
	if len(unstable) > 0 {
		if b.logging() {
			b.logf("part 2: erasing %d unstable actives", len(unstable))
		}
		if err := b.erase(unstable...); err != nil {
			return nil, err
		}
	}
	stableCount := len(b.active)
	if b.logging() {
		b.logf("part 2: %d stable waiters, %d finished", stableCount, b.nfinished)
	}

	// At this point every stable waiter is idle between calls — a legal
	// termination point, so running s solo is a fair continuation.
	s, why, err := b.chooseSignaler()
	if err != nil {
		return nil, err
	}
	if s == memsim.NoOwner {
		return b.certificate(VerdictEvaded, memsim.NoOwner, stableCount, why)
	}
	stableCount = len(b.active) // chooseSignaler may have erased one waiter
	if b.logging() {
		b.logf("part 2: signaler p%d starts the goose chase", s)
	}

	if err := b.exec.Start(s, memsim.CallSignal); err != nil {
		if errors.Is(err, signal.ErrUnsupported) || errors.Is(err, signal.ErrWrongSignaler) {
			return b.certificate(VerdictEvaded, memsim.NoOwner, stableCount,
				fmt.Sprintf("cannot start Signal on p%d: %v", s, err))
		}
		return nil, err
	}
	chaseBudget := b.cfg.SoloBudget
	finished := false
	for steps := 0; steps <= chaseBudget; steps++ {
		if _, done := b.exec.CallEnded(s); done {
			if _, err := b.exec.Finish(s); err != nil {
				return nil, err
			}
			finished = true
			break
		}
		acc, ok := b.exec.Pending(s)
		if !ok {
			continue
		}
		// Erase any stable waiter this step would see or touch, just
		// before the step — s still pays the RMR but learns nothing.
		if err := b.eraseTargets(s, acc); err != nil {
			return nil, err
		}
		if _, err := b.exec.Step(s); err != nil {
			return nil, err
		}
	}
	if !finished {
		return b.certNonTerminatingSignaler(s, stableCount)
	}

	// Safety audit (the contradiction branch of Lemma 6.13): any stable
	// waiter s never touched must still return false from Poll() even
	// though Signal() has completed.
	for _, p := range b.active {
		ret, err := b.exec.Invoke(p, memsim.CallPoll, b.cfg.SoloBudget)
		if err != nil {
			return b.certNonTerminating(fmt.Sprintf("post-signal Poll by p%d: %v", p, err))
		}
		if ret == 0 {
			b.violation = fmt.Sprintf(
				"Poll by p%d returned false although Signal by p%d completed (s never wrote p%d's module)", p, s, p)
			cert, err := b.certSafety()
			if cert != nil {
				cert.SignalerPID = s
				cert.StableWaiters = stableCount
			}
			return cert, err
		}
	}

	// Erase any remaining stable waiters: they are invisible to s and to
	// the finished processes, so the survivors' history is unchanged and
	// the participant count drops to s plus the finished processes.
	if leftovers := b.active; len(leftovers) > 0 {
		if b.logging() {
			b.logf("part 2: erasing %d untouched stable waiters after audit", len(leftovers))
		}
		if err := b.erase(leftovers...); err != nil {
			return nil, err
		}
	}

	cert, err := b.certificate(VerdictExceeded, s, stableCount,
		fmt.Sprintf("goose chase: signaler p%d incurred %d RMRs against %d stable waiters", s, b.led.rmrs[s], stableCount))
	if err != nil {
		return nil, err
	}
	if !cert.Exceeded() {
		cert.Verdict = VerdictEvaded
		cert.Detail = fmt.Sprintf(
			"goose chase completed with %d total RMRs over %d participants (<= c*k = %d); the algorithm evades the bound for c = %d",
			cert.TotalRMRs, cert.K, b.cfg.C*cert.K, b.cfg.C)
	}
	return cert, nil
}

// chooseSignaler picks the process that will run Signal(): one that never
// participated and whose memory module was never written, so that each of
// its accesses aimed at a stable waiter is provably an RMR. When every
// process participated, it erases one stable waiter whose module only that
// waiter itself ever wrote — erasure makes the PID fresh again, exactly the
// "for N large enough, some module is unwritten" argument of Lemma 6.13.
// It returns NoOwner with an explanation when no candidate exists.
func (b *builder) chooseSignaler() (memsim.PID, string, error) {
	led := &b.led
	if b.cfg.Algorithm.Variant.FixedSignaler {
		s := memsim.PID(b.n - 1)
		if led.participated[s] || b.isActive[s] || b.finished[s] {
			return memsim.NoOwner, fmt.Sprintf("designated signaler p%d already participates", s), nil
		}
		// The fixed-signaler variant is outside Theorem 6.2's scope; run
		// the chase anyway (written modules included) to characterize
		// the algorithm's behaviour.
		return s, "", nil
	}
	for i := 0; i < b.n; i++ {
		p := memsim.PID(i)
		if led.participated[p] || b.isActive[p] || b.finished[p] || led.written[p] {
			continue
		}
		return p, "", nil
	}
	// Free up a PID: an active stable waiter whose module nobody else
	// wrote becomes fresh once erased. Prefer the highest PID so waiter
	// indices stay dense.
	for i := len(b.active) - 1; i >= 0; i-- {
		p := b.active[i]
		if led.writtenByOther[p] {
			continue
		}
		if b.logging() {
			b.logf("part 2: erasing stable p%d to reuse it as a fresh signaler", p)
		}
		if err := b.erase(p); err != nil {
			return memsim.NoOwner, "", err
		}
		return p, "", nil
	}
	return memsim.NoOwner, "every module was written by another process; increase N", nil
}

// certSafety builds the safety-violation certificate, keeping the offending
// history intact as evidence.
func (b *builder) certSafety() (*Certificate, error) {
	return b.certificate(VerdictSafety, memsim.NoOwner, 0, b.violation)
}

// certNonTerminating builds the non-termination certificate.
func (b *builder) certNonTerminating(detail string) (*Certificate, error) {
	return b.certificate(VerdictNonTerminating, memsim.NoOwner, 0, detail)
}

func (b *builder) certNonTerminatingSignaler(s memsim.PID, stableCount int) (*Certificate, error) {
	return b.certificate(VerdictNonTerminating, s, stableCount, fmt.Sprintf(
		"Signal by p%d did not finish within %d solo steps although every waiter is at a legal termination point",
		s, b.cfg.SoloBudget))
}

// certificate snapshots the current history into a Certificate. Its
// counts come from the live ledger and its trace from replaying the live
// schedule (certificateTrace); its trace, owners and rounds are stored in
// a certStore that only the certificate holds, until its Release.
func (b *builder) certificate(v Verdict, s memsim.PID, stableCount int, detail string) (*Certificate, error) {
	st := certStorePool.Get().(*certStore)
	events, err := b.certificateTrace(st.events)
	if err != nil {
		certStorePool.Put(st)
		return nil, fmt.Errorf("certificate replay: %w", err)
	}
	events = keep(&st.events, events)
	// Self-audit: the construction must have kept the history regular
	// (Definition 6.6). Active processes are "unfinished"; the signaler,
	// if any, may legitimately see finished processes only.
	b.fin = append(b.fin[:0], b.finished...)
	if s != memsim.NoOwner {
		// The signaler is allowed to be "seen" conceptually — nobody
		// runs after it — and it terminated by completing Signal.
		b.fin[s] = true
	}
	m := b.exec.Machine()
	b.rel.Compute(events, m.Owner, b.n)
	regular := len(trace.CheckRegular(&b.rel, b.fin)) == 0
	total, k := 0, 0
	for p, r := range b.led.rmrs {
		total += r
		if b.led.participated[p] {
			k++
		}
	}
	sRMR := 0
	if s != memsim.NoOwner {
		sRMR = b.led.rmrs[s]
		if !b.led.participated[s] {
			k++ // a signaler that took only call-boundary actions still counts
		}
	}
	var rounds []RoundReport // nil when Part 1 ran no round
	if len(b.rounds) > 0 {
		rounds = keep(&st.rounds, append(reserve(st.rounds, len(b.rounds)), b.rounds...))
	}
	owners := reserve(st.owners, m.Size())
	for a := range m.Size() {
		owners = append(owners, m.Owner(memsim.Addr(a)))
	}
	owners = keep(&st.owners, owners)
	return &Certificate{
		Verdict:       v,
		C:             b.cfg.C,
		K:             k,
		TotalRMRs:     total,
		SignalerPID:   s,
		SignalerRMRs:  sRMR,
		StableWaiters: stableCount,
		Rounds:        rounds,
		Detail:        detail,
		Regular:       regular,
		Events:        events,
		Processes:     b.n,
		Owners:        owners,
		store:         st,
	}, nil
}

// keep stores buf's backing array, emptied, in *spare and returns buf cut
// to its length, so that appending to the result never writes into the
// spare capacity.
func keep[T any](spare *[]T, buf []T) []T {
	*spare = buf[:0]
	return buf[:len(buf):len(buf)]
}
