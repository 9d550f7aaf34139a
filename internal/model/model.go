package model

import (
	"repro/internal/memsim"
)

// Report is the outcome of scoring a trace under a cost model.
type Report struct {
	Model string
	// PerProc[p] is the number of RMRs process p incurred.
	PerProc []int
	// Total is the sum of PerProc.
	Total int
	// Messages is the number of interconnect messages generated
	// (meaningful for CC message models; equals Total for DSM and plain
	// CC scoring).
	Messages int
	// Invalidations counts events where a cached copy was actually
	// destroyed (Section 8 observes Invalidations <= Total).
	Invalidations int
}

// Amortized returns Total divided by the number of participating processes
// (processes with at least one access), the quantity bounded by the paper's
// definition of O(1) amortized RMR complexity. It returns 0 when no process
// participated.
func (r *Report) Amortized() float64 {
	parts := 0
	for _, c := range r.PerProc {
		if c > 0 {
			parts++
		}
	}
	if parts == 0 {
		return 0
	}
	return float64(r.Total) / float64(parts)
}

// Max returns the largest per-process RMR count (worst-case complexity).
func (r *Report) Max() int {
	max := 0
	for _, c := range r.PerProc {
		if c > max {
			max = c
		}
	}
	return max
}

// CostModel scores a trace.
type CostModel interface {
	Name() string
	Score(events []memsim.Event, owner func(memsim.Addr) memsim.PID, n int) *Report
}

// Cost is one event's price under a cost model: whether the access was an
// RMR, how many interconnect messages it generated, and how many cached
// copies it destroyed. Non-access events cost nothing.
type Cost struct {
	RMR           bool
	Messages      int
	Invalidations int
}

// Annotator is a cost model that can price a trace event by event
// (implemented by both DSM and CC). It is a test oracle:
// TestAccumulatorMatchesBatch finds through it the models whose per-event
// batch costs it compares with the accumulator's. Production code calls
// the concrete Annotate methods.
type Annotator interface {
	CostModel
	Annotate(events []memsim.Event, owner func(memsim.Addr) memsim.PID, n int) []Cost
}

// DSM is the distributed-shared-memory cost model: an access is an RMR if
// and only if the address maps to a module tied to another processor
// (Section 2). Global words (no owner) are remote to everyone.
type DSM struct{}

var _ CostModel = DSM{}

// Name implements CostModel.
func (DSM) Name() string { return "DSM" }

// Annotate implements Annotator. It is the batch form of the streaming
// accumulator (see stream.go), which holds the single copy of the pricing
// rules.
func (d DSM) Annotate(events []memsim.Event, owner func(memsim.Addr) memsim.PID, n int) []Cost {
	return annotate(d, events, owner, n)
}

// Score implements CostModel.
func (d DSM) Score(events []memsim.Event, owner func(memsim.Addr) memsim.PID, n int) *Report {
	return score(d, events, owner, n)
}

// IsRemoteDSM reports whether an access by pid to addr is an RMR under the
// DSM rule. It is exported because the lower-bound adversary classifies
// pending (not yet applied) accesses with the same rule.
func IsRemoteDSM(pid memsim.PID, addr memsim.Addr, owner func(memsim.Addr) memsim.PID) bool {
	return owner(addr) != pid
}

// MsgModel selects how a CC write's invalidation traffic is counted
// (Section 8).
type MsgModel uint8

// The coherence message accounting variants of Section 8.
const (
	// MsgBus models a shared bus: every RMR is one broadcast message, so
	// CC RMRs are "at par" with DSM RMRs.
	MsgBus MsgModel = iota + 1
	// MsgDirectoryIdeal models a directory that knows exactly which
	// caches hold a copy: one invalidation message per actual copy.
	MsgDirectoryIdeal
	// MsgDirectoryLimited models a directory that tracks at most Limit
	// sharers precisely and otherwise broadcasts to all other
	// processors, generating superfluous invalidation messages.
	MsgDirectoryLimited
)

// CC is the cache-coherent cost model. With WriteBack false it models a
// write-through protocol: reads hit the local cache until another process
// performs a nontrivial operation on the location; every non-read
// operation traverses the interconnect. With WriteBack true, a writer
// additionally gains an exclusive cached copy, so repeated writes by the
// same process to an uncontended location cost one RMR in total.
//
// This implements the paper's loose Section 2 definition ("if a process
// reads some memory location several times, the entire sequence of reads
// incurs only one RMR provided no nontrivial operation by another process
// intervenes") plus the Section 8 message accounting.
type CC struct {
	WriteBack bool
	Msg       MsgModel
	// Limit is the precise-sharer capacity for MsgDirectoryLimited.
	Limit int
	// StrictInvalidate makes every non-read operation invalidate remote
	// copies, even trivial ones (failed CAS/SC). The paper's Section 2
	// definition invalidates only on nontrivial operations; this knob
	// exists for the cache-rule ablation (BenchmarkAblationCacheRule in the
	// root bench_test.go).
	StrictInvalidate bool
	// EvictEvery, when positive, spuriously evicts a process's entire
	// cache every EvictEvery of its own accesses — the Section 8 caveat
	// that the ideal-cache assumption "does not hold in a preemptive
	// multitasking environment", under which theoretical RMR bounds
	// underestimate the real count. 0 keeps the paper's ideal cache.
	EvictEvery int
}

var _ CostModel = CC{}

// ccNames are the CC model names, indexed by WriteBack and then by Msg
// (an unset or unknown Msg adds no suffix).
var ccNames = [2][4]string{
	{"CC-WT", "CC-WT/bus", "CC-WT/dir-ideal", "CC-WT/dir-limited"},
	{"CC-WB", "CC-WB/bus", "CC-WB/dir-ideal", "CC-WB/dir-limited"},
}

// Name implements CostModel.
func (c CC) Name() string {
	wb, msg := 0, int(c.Msg)
	if c.WriteBack {
		wb = 1
	}
	if msg >= len(ccNames[wb]) {
		msg = 0
	}
	return ccNames[wb][msg]
}

// Score implements CostModel.
func (c CC) Score(events []memsim.Event, owner func(memsim.Addr) memsim.PID, n int) *Report {
	return score(c, events, owner, n)
}

// Annotate implements Annotator. It is the batch form of the streaming
// accumulator (see stream.go), which holds the single copy of the cache
// simulation and pricing rules.
func (c CC) Annotate(events []memsim.Event, owner func(memsim.Addr) memsim.PID, n int) []Cost {
	return annotate(c, events, owner, n)
}

// score runs a whole trace through one accumulator.
func score(s Scorer, events []memsim.Event, owner func(memsim.Addr) memsim.PID, n int) *Report {
	acc := s.Begin(n, owner)
	for _, ev := range events {
		acc.Add(ev)
	}
	return FinalReport(acc)
}

// annotate collects per-event costs from one accumulator.
func annotate(s Scorer, events []memsim.Event, owner func(memsim.Addr) memsim.PID, n int) []Cost {
	costs := make([]Cost, len(events))
	acc := s.Begin(n, owner)
	for i, ev := range events {
		costs[i] = acc.Add(ev)
	}
	return costs
}

// Standard model instances used across benchmarks and experiments.
var (
	// ModelDSM is the DSM cost model of Section 2.
	ModelDSM = DSM{}
	// ModelCC is the paper's loose CC model with bus messaging.
	ModelCC = CC{Msg: MsgBus}
	// ModelCCWriteBack is the write-back CC variant.
	ModelCCWriteBack = CC{WriteBack: true, Msg: MsgBus}
	// ModelCCDirIdeal counts one invalidation message per destroyed copy.
	ModelCCDirIdeal = CC{Msg: MsgDirectoryIdeal}
)

// CCDirLimited returns a limited-directory CC model tracking at most limit
// sharers precisely.
func CCDirLimited(limit int) CC { return CC{Msg: MsgDirectoryLimited, Limit: limit} }
