// Package jobspec is the shared vocabulary of the three job surfaces —
// cmd/explore, cmd/worstcase and the cmd/reprod job server: one Spec
// describes a polling workload (algorithm, waiters × polls, depth,
// model, mode), normalizes to the same defaults every surface has
// always used, and compiles to the explore/search Configs; one Doc type
// per kind mirrors the CLIs' round-trip-tested -json documents
// byte-identically, so a result served over HTTP diffs cleanly against
// a result printed by the CLI. Centralizing the scripts construction
// (waiters poll at PIDs 0..w-1, one spare, the signaler at N-1) keeps
// the three mains from drifting apart.
package jobspec

import (
	"fmt"

	"repro/internal/errs"
	"repro/internal/explore"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/search"
	"repro/internal/signal"
)

// The job kinds.
const (
	KindExplore   = "explore"
	KindWorstcase = "worstcase"
)

// Spec is one job description — the JSON body POSTed to the reprod
// server, and the normalized form of the CLI flag sets.
type Spec struct {
	// Kind is "explore" or "worstcase".
	Kind string `json:"kind"`
	// Alg names the signaling algorithm (signal.ByName); default "flag".
	Alg string `json:"alg,omitempty"`
	// Waiters and Polls shape the workload: Waiters polling processes at
	// PIDs 0..Waiters-1, Polls calls each, one signaler at PID N-1, with
	// N = Waiters+2. Defaults 2 and 2.
	Waiters int `json:"waiters,omitempty"`
	Polls   int `json:"polls,omitempty"`
	// Depth bounds the schedule depth; default 10, at most maxDepth.
	Depth int `json:"depth,omitempty"`
	// Model is the worst-case cost model (dsm, cc, cc-wb, cc-dir-ideal);
	// default "dsm". Worstcase only.
	Model string `json:"model,omitempty"`
	// Mode is "exhaustive" or "sample"; default "exhaustive". Worstcase
	// only.
	Mode string `json:"mode,omitempty"`
	// Seed and Walks parameterize sample mode; defaults 1 and 512, at
	// most maxWalks walks.
	Seed  int64 `json:"seed,omitempty"`
	Walks int   `json:"walks,omitempty"`
	// Dedup selects the explorer engine; nil means true (backtracking
	// with state dedup), false runs plain backtracking, which visits every
	// history.
	Dedup *bool `json:"dedup,omitempty"`
	// Reduce enables partial-order and symmetry reduction: explore jobs
	// run EngineBacktrackDedupPOR, worstcase jobs set search Config.Reduce
	// (exhaustive mode only; cost-safety is capability-gated by the model).
	Reduce bool `json:"reduce,omitempty"`
	// Workers overrides the worker count (0 = one per core), at most
	// maxWorkers. Results are identical for every value.
	Workers int `json:"workers,omitempty"`
	// Faults bounds the fault dimension of the schedule space: up to
	// Faults crash/lost-CAS choice points per schedule. Zero (the
	// default) disables faults and keeps every result byte-identical to
	// pre-fault documents.
	Faults int `json:"faults,omitempty"`
	// FaultKinds selects the injected fault kinds as a comma-separated
	// list ("crash", "lostcas"); default "crash,lostcas" when Faults > 0.
	FaultKinds string `json:"faultKinds,omitempty"`
	// FaultVol is the crash volatility model: "stable" (crashes lose only
	// the process's frame) or "owned" (the crashed process's owned memory
	// words additionally revert to their initial values); default
	// "stable".
	FaultVol string `json:"faultVol,omitempty"`
}

// The largest workload shape a spec may ask for. A machine holds at most
// 64 processes (waiters plus two), the width of the engines' process
// masks; the poll cap keeps a spec's compiled scripts small. The worker
// cap bounds what a run sets up per worker before any work (a pricer or
// monitor each, and a goroutine), far above any core count a job gains
// from. The depth cap bounds the schedule length, hence a sample walk's
// steps and an exhaustive run's recursion; 64 is well past the deepest
// exhaustive run that finishes (about 24) and admits sample runs at
// depth 40. The walk cap bounds sample mode's per-walk result arrays,
// which a run allocates up front, and its time: 65,536 walks of 64
// choices each stay a few million steps.
const (
	maxWaiters = 62
	maxPolls   = 1 << 16
	maxWorkers = 256
	maxDepth   = 64
	maxWalks   = 1 << 16
)

// Normalize validates s and fills every defaulted field in place. It is
// idempotent; every compile method calls it first. Errors are
// errs.CodeInvalid Failures, ready for an HTTP 400.
func (s *Spec) Normalize() error {
	switch s.Kind {
	case KindExplore, KindWorstcase:
	default:
		return errs.Failuref(errs.CodeInvalid, "jobspec: unknown kind %q (have %q, %q)",
			s.Kind, KindExplore, KindWorstcase)
	}
	if s.Alg == "" {
		s.Alg = "flag"
	}
	alg, err := signal.ByName(s.Alg)
	if err != nil {
		return errs.Failuref(errs.CodeInvalid, "jobspec: %v", err)
	}
	if !alg.Variant.Polling {
		return errs.Failuref(errs.CodeInvalid,
			"jobspec: %s has no Poll; jobs drive polling workloads", alg.Name)
	}
	if s.Waiters <= 0 {
		s.Waiters = 2
	}
	if s.Polls <= 0 {
		s.Polls = 2
	}
	if s.Waiters > maxWaiters || s.Polls > maxPolls {
		return errs.Failuref(errs.CodeInvalid,
			"jobspec: at most %d waiters and %d polls per waiter, got %d and %d",
			maxWaiters, maxPolls, s.Waiters, s.Polls)
	}
	if s.Workers > maxWorkers {
		return errs.Failuref(errs.CodeInvalid, "jobspec: at most %d workers, got %d", maxWorkers, s.Workers)
	}
	if s.Depth <= 0 {
		s.Depth = 10
	}
	if s.Depth > maxDepth {
		return errs.Failuref(errs.CodeInvalid, "jobspec: depth at most %d, got %d", maxDepth, s.Depth)
	}
	if s.Faults < 0 {
		return errs.Failuref(errs.CodeInvalid, "jobspec: faults must be >= 0, got %d", s.Faults)
	}
	if s.Faults == 0 && (s.FaultKinds != "" || s.FaultVol != "") {
		return errs.Failure(errs.CodeInvalid,
			"jobspec: faultKinds/faultVol require faults > 0")
	}
	if s.Faults > 0 {
		if s.FaultKinds == "" {
			s.FaultKinds = "crash,lostcas"
		}
		if _, err := memsim.ParseFaultKinds(s.FaultKinds); err != nil {
			return errs.Failuref(errs.CodeInvalid, "jobspec: %v", err)
		}
		if _, err := memsim.ParseVolatility(s.FaultVol); err != nil {
			return errs.Failuref(errs.CodeInvalid, "jobspec: %v", err)
		}
		if s.FaultVol == "" {
			s.FaultVol = "stable"
		}
	}
	if s.Kind == KindExplore && s.Reduce && s.Dedup != nil && !*s.Dedup {
		return errs.Failure(errs.CodeInvalid,
			"jobspec: reduce requires the dedup backtracking engine (drop dedup=false)")
	}
	if s.Kind == KindWorstcase {
		if s.Model == "" {
			s.Model = "dsm"
		}
		if _, err := ModelByName(s.Model); err != nil {
			return errs.Failuref(errs.CodeInvalid, "jobspec: %v", err)
		}
		if s.Mode == "" {
			s.Mode = "exhaustive"
		}
		var m search.Mode
		if err := m.UnmarshalText([]byte(s.Mode)); err != nil {
			return errs.Failuref(errs.CodeInvalid, "jobspec: %v", err)
		}
		if s.Reduce && m != search.ModeExhaustive {
			return errs.Failure(errs.CodeInvalid,
				"jobspec: reduce applies to exhaustive mode only (sampling explores no state space to reduce)")
		}
		if s.Seed == 0 {
			s.Seed = 1
		}
		if s.Walks <= 0 {
			s.Walks = 512
		}
		if s.Walks > maxWalks {
			return errs.Failuref(errs.CodeInvalid, "jobspec: at most %d walks, got %d", maxWalks, s.Walks)
		}
	}
	return nil
}

// FaultPolicy compiles the spec's fault fields into the memsim policy
// shared by both engines. The zero value (Faults == 0) compiles to the
// disabled policy. Call after Normalize.
func (s *Spec) FaultPolicy() (memsim.FaultPolicy, error) {
	if s.Faults == 0 {
		return memsim.FaultPolicy{}, nil
	}
	kinds, err := memsim.ParseFaultKinds(s.FaultKinds)
	if err != nil {
		return memsim.FaultPolicy{}, errs.Failuref(errs.CodeInvalid, "jobspec: %v", err)
	}
	vol, err := memsim.ParseVolatility(s.FaultVol)
	if err != nil {
		return memsim.FaultPolicy{}, errs.Failuref(errs.CodeInvalid, "jobspec: %v", err)
	}
	return memsim.FaultPolicy{Max: s.Faults, Kinds: kinds, Vol: vol}, nil
}

// ModelByName resolves a cost-model name the way the worstcase CLI
// always has.
func ModelByName(name string) (model.Scorer, error) {
	switch name {
	case "dsm":
		return model.ModelDSM, nil
	case "cc":
		return model.ModelCC, nil
	case "cc-wb":
		return model.ModelCCWriteBack, nil
	case "cc-dir-ideal":
		return model.ModelCCDirIdeal, nil
	default:
		return nil, fmt.Errorf("unknown model %q (have dsm, cc, cc-wb, cc-dir-ideal)", name)
	}
}

// Scripts compiles the workload shape shared by every surface: N =
// Waiters+2 processes, waiters polling at PIDs 0..Waiters-1, the
// signaler at PID N-1, one spare in between.
func (s *Spec) Scripts() (n int, scripts map[memsim.PID][]memsim.CallKind) {
	n = s.Waiters + 2
	scripts = make(map[memsim.PID][]memsim.CallKind, s.Waiters+1)
	for i := 0; i < s.Waiters; i++ {
		script := make([]memsim.CallKind, s.Polls)
		for j := range script {
			script[j] = memsim.CallPoll
		}
		scripts[memsim.PID(i)] = script
	}
	scripts[memsim.PID(n-1)] = []memsim.CallKind{memsim.CallSignal}
	return n, scripts
}

// SearchConfig compiles a worstcase Spec into the search Config.
func (s *Spec) SearchConfig() (search.Config, error) {
	if err := s.Normalize(); err != nil {
		return search.Config{}, err
	}
	if s.Kind != KindWorstcase {
		return search.Config{}, errs.Failuref(errs.CodeInvalid,
			"jobspec: %s spec cannot compile to a search config", s.Kind)
	}
	alg, err := signal.ByName(s.Alg)
	if err != nil {
		return search.Config{}, err
	}
	scorer, err := ModelByName(s.Model)
	if err != nil {
		return search.Config{}, err
	}
	var m search.Mode
	if err := m.UnmarshalText([]byte(s.Mode)); err != nil {
		return search.Config{}, err
	}
	fp, err := s.FaultPolicy()
	if err != nil {
		return search.Config{}, err
	}
	n, scripts := s.Scripts()
	return search.Config{
		Factory:  alg.New,
		N:        n,
		Scripts:  scripts,
		MaxDepth: s.Depth,
		Model:    scorer,
		Mode:     m,
		Workers:  s.Workers,
		Reduce:   s.Reduce,
		Seed:     s.Seed,
		Walks:    s.Walks,
		Faults:   fp,
	}, nil
}

// ExploreConfig compiles an explore Spec into the explorer Config, with
// the Specification 4.1 check every surface uses.
func (s *Spec) ExploreConfig() (explore.Config, error) {
	if err := s.Normalize(); err != nil {
		return explore.Config{}, err
	}
	if s.Kind != KindExplore {
		return explore.Config{}, errs.Failuref(errs.CodeInvalid,
			"jobspec: %s spec cannot compile to an explore config", s.Kind)
	}
	alg, err := signal.ByName(s.Alg)
	if err != nil {
		return explore.Config{}, err
	}
	engine := explore.EngineAuto
	if s.Dedup != nil && !*s.Dedup {
		engine = explore.EngineBacktrack
	}
	if s.Reduce {
		engine = explore.EngineBacktrackDedupPOR
	}
	fp, err := s.FaultPolicy()
	if err != nil {
		return explore.Config{}, err
	}
	n, scripts := s.Scripts()
	return explore.Config{
		Factory:  alg.New,
		N:        n,
		Scripts:  scripts,
		MaxDepth: s.Depth,
		Engine:   engine,
		Workers:  s.Workers,
		Faults:   fp,
		Check: func(events []memsim.Event) error {
			if vs := signal.CheckSpec(events); len(vs) > 0 {
				return vs[0]
			}
			return nil
		},
	}, nil
}

// WorstcaseDoc mirrors cmd/worstcase's -json document byte-identically:
// workload parameters, then the embedded search result with the
// machine-dependent Workers field shadowed out.
type WorstcaseDoc struct {
	Algorithm string `json:"algorithm"`
	Model     string `json:"model"`
	Waiters   int    `json:"waiters"`
	Polls     int    `json:"polls"`
	Depth     int    `json:"depth"`
	// Faults, FaultKinds and FaultVol echo the fault policy the search ran
	// under; all omitted (keeping fault-free documents byte-identical to
	// pre-fault ones) when Faults is zero.
	Faults     int    `json:"faults,omitempty"`
	FaultKinds string `json:"faultKinds,omitempty"`
	FaultVol   string `json:"faultVol,omitempty"`
	*search.Result
	// Workers shadows the embedded Result field out of the document: the
	// resolved pool size is machine-dependent (GOMAXPROCS) while every
	// search counter is not, so dropping it keeps the JSON byte-identical
	// across machines and worker counts.
	Workers int `json:"workers,omitempty"`
}

// NewWorstcaseDoc assembles the document from a normalized spec and its
// result (res is copied; the caller's value is not zeroed).
func NewWorstcaseDoc(s *Spec, res *search.Result) *WorstcaseDoc {
	r := *res
	r.Workers = 0 // machine-dependent; see WorstcaseDoc.Workers
	doc := &WorstcaseDoc{
		Algorithm: s.Alg,
		Model:     r.Model,
		Waiters:   s.Waiters,
		Polls:     s.Polls,
		Depth:     s.Depth,
		Result:    &r,
	}
	if s.Faults > 0 {
		doc.Faults, doc.FaultKinds, doc.FaultVol = s.Faults, s.FaultKinds, s.FaultVol
	}
	return doc
}

// ExploreDoc mirrors cmd/explore's -json document byte-identically on
// passing runs, with one service-surface extension: Violation (absent on
// the CLI, which exits non-zero instead) carries the counterexample
// message when the specification fails.
type ExploreDoc struct {
	Algorithm string `json:"algorithm"`
	Waiters   int    `json:"waiters"`
	Polls     int    `json:"polls"`
	Depth     int    `json:"depth"`
	// Faults, FaultKinds and FaultVol echo the fault policy the
	// exploration ran under; all omitted when Faults is zero.
	Faults          int    `json:"faults,omitempty"`
	FaultKinds      string `json:"faultKinds,omitempty"`
	FaultVol        string `json:"faultVol,omitempty"`
	Paths           int    `json:"paths"`
	Truncated       int    `json:"truncated"`
	StatesDeduped   int    `json:"statesDeduped"`
	MaxDepthReached int    `json:"maxDepthReached"`
	// StepsSlept and SymmetryMerges are the reduction counters of the POR
	// engine; omitted (zero) for every other engine, keeping pre-reduction
	// documents byte-identical.
	StepsSlept     int    `json:"stepsSlept,omitempty"`
	SymmetryMerges int    `json:"symmetryMerges,omitempty"`
	Engine         string `json:"engine"`
	SpecHolds      bool   `json:"specHolds"`
	Violation      string `json:"violation,omitempty"`
}

// NewExploreDoc assembles the document from a normalized spec, its
// result, and the violation message ("" when the spec holds).
func NewExploreDoc(s *Spec, res *explore.Result, violation string) *ExploreDoc {
	doc := &ExploreDoc{
		Algorithm:       s.Alg,
		Waiters:         s.Waiters,
		Polls:           s.Polls,
		Depth:           s.Depth,
		Paths:           res.Paths,
		Truncated:       res.Truncated,
		StatesDeduped:   res.StatesDeduped,
		MaxDepthReached: res.MaxDepthReached,
		StepsSlept:      res.StepsSlept,
		SymmetryMerges:  res.SymmetryMerges,
		Engine:          res.Engine.String(),
		SpecHolds:       violation == "",
		Violation:       violation,
	}
	if s.Faults > 0 {
		doc.Faults, doc.FaultKinds, doc.FaultVol = s.Faults, s.FaultKinds, s.FaultVol
	}
	return doc
}
