package main

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// The traced run. It measures each layer from outside: it times calls
// into the modules' public functions, wraps the explore Check callback,
// and reads the engines' own counters through Config.Telemetry. Every
// traced run reports every per-layer figure: the named workload gets a
// closed loop for the rest of the run, every other layer a few jobs.

// tracer runs one workload's job traced (accumulating its layer
// figures) or plain (for the job times).
type tracer interface {
	traced() error
	plain() error
	emit(m metrics)
}

// otherJobs is how many traced jobs a layer gets when the run's
// workload is another one.
const otherJobs = 3

// minPairs is the least number of traced and plain job pairs the
// workload's own loop runs, however long the rest of the run took.
const minPairs = 8

// firstJobs is how many cold starts time the set-up and first job.
const firstJobs = 3

// checkpointPairs is how many checkpointed and plain searches the
// checkpoint comparison runs. A checkpointed worstcase-cc job commits 64
// snapshots of about 3 MB each, so it is kept short.
const checkpointPairs = 2

type searchTrace struct {
	cfg, plainCfg search.Config
	reg           *telemetry.Registry
	runS, replayS []float64
	witness       []int
	stages        stageCosts
	forkCC, obsCC float64
}

func newSearchTrace() (*searchTrace, error) {
	cfg, err := compileSearch(worstcaseSpec)
	if err != nil {
		return nil, err
	}
	t := &searchTrace{plainCfg: cfg, reg: telemetry.New()}
	t.cfg = cfg
	t.cfg.Telemetry = t.reg
	return t, nil
}

func (t *searchTrace) traced() error {
	start := time.Now()
	res, err := search.Run(t.cfg)
	if err != nil {
		return err
	}
	mid := time.Now()
	rep, err := search.Replay(t.cfg, res.Witness)
	if err != nil {
		return err
	}
	t.runS = append(t.runS, mid.Sub(start).Seconds())
	t.replayS = append(t.replayS, time.Since(mid).Seconds())
	t.witness = res.Witness
	return checkWorstcase(res, rep)
}

func (t *searchTrace) plain() error { return runWorstcase(t.plainCfg) }

// perJob divides the registry's counters by the traced job count.
func perJob(reg *telemetry.Registry, jobs int) map[string]float64 {
	c := map[string]float64{}
	for _, v := range reg.CounterValues() {
		c[v.Name] = float64(v.Value) / float64(jobs)
	}
	return c
}

func (t *searchTrace) emit(m metrics) {
	c := perJob(t.reg, len(t.runS))
	hits, misses := c["repro_engine_memo_hits_total"], c["repro_engine_memo_misses_total"]
	arrivals := c["repro_engine_paths_total"] + hits
	runS := median(t.runS)
	m.set("search.run_s", runS, "s")
	m.set("search.replay_s", median(t.replayS), "s")
	m.set("search.arrivals_per_job", arrivals, "count")
	m.set("search.memo_hit_frac", hits/(hits+misses), "fraction")
	m.set("search.ns_per_arrival", runS*1e9/arrivals, "ns")

	// Stage sum: every edge applies, reverts, restores the frames, prices
	// one event and re-forks the CC accumulator; every claimed node saves
	// a snapshot (frames and fork); every arrival at an internal node
	// encodes and hashes its key.
	s := t.stages
	edges := c["repro_engine_nodes_total"] - 1
	ns := edges*(s.applyRevert+s.clone+t.forkCC+t.obsCC) +
		misses*(s.clone+t.forkCC) + (hits+misses)*(s.encode+s.hash)
	m.set("stages.unexplained_frac.worstcase-cc", 1-ns/(runS*1e9), "fraction")
}

type exploreTrace struct {
	cfg, plainCfg   explore.Config
	reg             *telemetry.Registry
	runS            []float64
	checks, checkNs int64
	stages          stageCosts
}

func newExploreTrace() (*exploreTrace, error) {
	cfg, err := compileExplore(exploreSpec)
	if err != nil {
		return nil, err
	}
	t := &exploreTrace{plainCfg: cfg, reg: telemetry.New()}
	t.cfg = cfg
	t.cfg.Telemetry = t.reg
	// The spec runs one worker, so the wrapped check is never called
	// concurrently.
	check := cfg.Check
	t.cfg.Check = func(events []memsim.Event) error {
		start := time.Now()
		err := check(events)
		t.checkNs += time.Since(start).Nanoseconds()
		t.checks++
		return err
	}
	return t, nil
}

func (t *exploreTrace) traced() error {
	start := time.Now()
	res, err := explore.Run(t.cfg)
	if err != nil {
		return err
	}
	t.runS = append(t.runS, time.Since(start).Seconds())
	return checkExplore(res)
}

func (t *exploreTrace) plain() error { return runExplore(t.plainCfg) }

func (t *exploreTrace) emit(m metrics) {
	jobs := float64(len(t.runS))
	c := perJob(t.reg, len(t.runS))
	nodes, paths, deduped := c["repro_engine_nodes_total"], c["repro_engine_paths_total"], c["repro_engine_deduped_total"]
	runS := median(t.runS)
	checkNs := float64(t.checkNs) / jobs
	m.set("explore.run_s", runS, "s")
	m.set("explore.states_per_job", nodes, "count")
	m.set("explore.dedup_hit_frac", deduped/(nodes-paths), "fraction")
	m.set("explore.ns_per_state", runS*1e9/nodes, "ns")
	m.set("explore.slept_per_job", c["repro_engine_sleep_prunes_total"], "count")
	m.set("explore.symmetry_merges_per_job", c["repro_engine_symmetry_merges_total"], "count")
	m.set("explore.fault_branches_per_job", c["repro_engine_fault_branches_total"], "count")
	m.set("signal.check_s_per_job", checkNs/1e9, "s")
	m.set("signal.checks_per_job", float64(t.checks)/jobs, "count")

	// Stage sum: every edge applies, reverts and restores the frames;
	// every internal node encodes and hashes its key, and the claimed
	// ones save a snapshot; every leaf runs the Spec 4.1 check.
	s := t.stages
	keys := nodes - paths
	ns := (nodes-1)*(s.applyRevert+s.clone) + (keys-deduped)*s.clone +
		keys*(s.encode+s.hash) + checkNs
	m.set("stages.unexplained_frac.explore-por-faults", 1-ns/(runS*1e9), "fraction")
}

type coreTrace struct {
	golden []byte
	tableS map[string][]float64
}

func (t *coreTrace) traced() error {
	tables := make([]*core.Table, 0, len(experimentTables))
	for _, e := range experimentTables {
		start := time.Now()
		tab, err := e.run()
		if err != nil {
			return err
		}
		t.tableS[e.id] = append(t.tableS[e.id], time.Since(start).Seconds())
		tables = append(tables, tab)
	}
	return checkTables(tables, t.golden)
}

func (t *coreTrace) plain() error { return runExperiments(t.golden) }

func (t *coreTrace) emit(m metrics) {
	for _, e := range experimentTables {
		m.set("core."+e.id+"_s", median(t.tableS[e.id]), "s")
	}
}

func runTraced(name string, seed int64, seconds float64) (result, error) {
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	golden, err := readGolden()
	if err != nil {
		return result{}, err
	}
	st, err := newSearchTrace()
	if err != nil {
		return result{}, err
	}
	et, err := newExploreTrace()
	if err != nil {
		return result{}, err
	}
	ct := &coreTrace{golden: golden, tableS: map[string][]float64{}}
	order := []string{"worstcase-cc", "explore-por-faults", "experiments"}
	tracers := map[string]tracer{"worstcase-cc": st, "explore-por-faults": et, "experiments": ct}
	own := tracers[name]

	var t tally
	m := metrics{}
	for _, n := range order {
		if n != name {
			for i := 0; i < otherJobs; i++ {
				t.record(tracers[n].traced())
			}
		}
	}
	if st.witness == nil {
		t.record(st.traced())
	}

	// Set-up and stage costs. The memsim stages run on frames and a
	// machine built from the workload's own spec; experiments has none
	// and reports those of the worstcase-cc spec.
	compile := func() error { _, err := compileSearch(worstcaseSpec); return err }
	if name == "explore-por-faults" {
		compile = func() error { _, err := compileExplore(exploreSpec); return err }
	}
	compileUs, err := compileMicros(compile)
	if err != nil {
		return result{}, err
	}
	m.set("jobspec.compile_us", compileUs, "us")
	var firstS []float64
	for i := 0; i < firstJobs; i++ {
		d, err := cold("first-job", name)
		t.record(err)
		if err == nil {
			firstS = append(firstS, d)
		}
	}
	m.set("setup.first_job_s", median(firstS), "s")
	if st.stages, err = memsimStages(st.plainCfg.Factory, st.plainCfg.N, st.plainCfg.Scripts); err != nil {
		return result{}, err
	}
	if et.stages, err = memsimStages(et.plainCfg.Factory, et.plainCfg.N, et.plainCfg.Scripts); err != nil {
		return result{}, err
	}
	s := st.stages
	if name == "explore-por-faults" {
		s = et.stages
	}
	m.set("memsim.apply_revert_ns", s.applyRevert, "ns")
	m.set("memsim.encode_ns", s.encode, "ns")
	m.set("memsim.key_bytes", float64(s.keyBytes), "bytes")
	m.set("memsim.hash_ns", s.hash, "ns")
	m.set("memsim.clone_ns", s.clone, "ns")
	for _, sc := range []struct {
		name   string
		scorer model.Scorer
	}{{"cc", model.ModelCC}, {"dsm", model.ModelDSM}} {
		fork, observe, err := modelStages(st.plainCfg, st.witness, sc.scorer)
		if err != nil {
			return result{}, err
		}
		m.set("model.fork_ns."+sc.name, fork, "ns")
		m.set("model.observe_ns."+sc.name, observe, "ns")
		if sc.name == "cc" {
			st.forkCC, st.obsCC = fork, observe
		}
	}

	if err := measureWorksteal(m, &t, rng); err != nil {
		return result{}, err
	}
	if err := measureCheckpoint(m, &t, rng); err != nil {
		return result{}, err
	}
	if err := measureTelemetry(name, m, &t, rng); err != nil {
		return result{}, err
	}

	// The workload's own closed loop for the rest of the run, traced and
	// plain jobs in pairs whose order the seed picks.
	var tracedS, plainS []float64
	cycles0, gcCPU0, cpu0 := gcSample()
	for pairs := 0; pairs < minPairs || time.Since(start).Seconds() < seconds; pairs++ {
		tracedFirst := rng.Intn(2) == 0
		for k := 0; k < 2; k++ {
			js := time.Now()
			var err error
			if (k == 0) == tracedFirst {
				err = own.traced()
				tracedS = append(tracedS, time.Since(js).Seconds())
			} else {
				err = own.plain()
				plainS = append(plainS, time.Since(js).Seconds())
			}
			t.record(err)
		}
	}
	cycles1, gcCPU1, cpu1 := gcSample()
	loopJobs := float64(len(tracedS) + len(plainS))
	m.set("gc.cycles_per_job", (cycles1-cycles0)/loopJobs, "count")
	m.set("gc.cpu_frac", (gcCPU1-gcCPU0)/(cpu1-cpu0), "fraction")
	m.set("job_s.p10", quantile(plainS, 0.1), "s")
	m.set("job_s.p50", median(plainS), "s")

	for _, n := range order {
		tracers[n].emit(m)
	}
	m.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
	m.set("host.nproc", float64(runtime.NumCPU()), "count")
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// gcSample reads the GC cycle count and the GC and total CPU seconds.
func gcSample() (cycles, gcCPU, totalCPU float64) {
	s := []rtmetrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()
}

// nsPerOp runs fn, which performs k operations, in seven batches and
// returns the median nanoseconds per operation.
func nsPerOp(k int, fn func(k int)) float64 {
	per := make([]float64, 7)
	for i := range per {
		start := time.Now()
		fn(k)
		per[i] = float64(time.Since(start).Nanoseconds()) / float64(k)
	}
	return median(per)
}

// compileMicros times compile, which decodes and compiles a job spec.
func compileMicros(compile func() error) (float64, error) {
	if err := compile(); err != nil {
		return 0, err
	}
	return nsPerOp(500, func(k int) {
		for i := 0; i < k; i++ {
			_ = compile() // succeeded above; the spec is a constant
		}
	}) / 1e3, nil
}

// stageCosts are the per-operation costs of the memsim stages of one
// node expansion.
type stageCosts struct {
	applyRevert, encode, hash, clone float64
	keyBytes                         int
}

var hashSink [16]byte

// memsimStages times the memsim stages on a live machine and live frames
// of the given workload: every scripted process has started its first
// call and applied one access, so each frame holds call-local state and
// a pending access.
func memsimStages(factory memsim.Factory, n int, scripts map[memsim.PID][]memsim.CallKind) (stageCosts, error) {
	mach := memsim.NewMachine(n)
	inst, err := factory(mach, n)
	if err != nil {
		return stageCosts{}, err
	}
	ri, ok := inst.(memsim.ResumableInstance)
	if !ok {
		return stageCosts{}, errors.New("stages: instance has no resumable form")
	}
	frames := make([]memsim.Resumable, n)
	pending := make([]memsim.Access, n)
	var scripted, live []memsim.PID
	for p := memsim.PID(0); int(p) < n; p++ {
		script := scripts[p]
		if len(script) == 0 {
			continue
		}
		f, err := ri.ResumableProgram(p, script[0])
		if err != nil {
			return stageCosts{}, err
		}
		frames[p] = f
		scripted = append(scripted, p)
		acc, ok := f.Next(memsim.Result{})
		if ok {
			acc, ok = f.Next(mach.Apply(p, acc))
		}
		if ok {
			pending[p] = acc
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return stageCosts{}, errors.New("stages: no process has a pending access")
	}

	var s stageCosts
	s.applyRevert = nsPerOp(20000, func(k int) {
		for i := 0; i < k; i++ {
			p := live[i%len(live)]
			_, u := mach.ApplyLogged(p, pending[p])
			mach.Revert(u)
		}
	})
	var key []byte
	s.encode = nsPerOp(20000, func(k int) {
		for i := 0; i < k; i++ {
			b := mach.AppendKeyState(key[:0])
			for _, p := range scripted {
				b = memsim.AppendKeyFrameState(b, frames[p])
			}
			key = b
		}
	})
	s.keyBytes = len(key)
	s.hash = nsPerOp(20000, func(k int) {
		for i := 0; i < k; i++ {
			hashSink = memsim.HashKey128(key)
		}
	})
	snap := make([]memsim.Resumable, n)
	s.clone = nsPerOp(20000, func(k int) {
		for i := 0; i < k; i++ {
			for j, f := range frames {
				snap[j] = memsim.CloneResumableInto(snap[j], f)
			}
		}
	})
	return s, nil
}

// forkAcc forks src the way the search engine does: into spare's
// storage when the accumulator supports it.
func forkAcc(src, spare model.Accumulator) model.Accumulator {
	if r, ok := src.(model.ReusingForker); ok {
		return r.ForkReuse(spare)
	}
	return src.(model.ForkableAccumulator).Fork()
}

// modelStages times pricing one event (Observe) and forking a live
// accumulator, on the events of the worstcase-cc witness.
func modelStages(cfg search.Config, witness []int, scorer model.Scorer) (fork, observe float64, err error) {
	rep, err := search.Replay(cfg, witness)
	if err != nil {
		return 0, 0, err
	}
	events := rep.Events
	mach := memsim.NewMachine(cfg.N)
	if _, err := cfg.Factory(mach, cfg.N); err != nil {
		return 0, 0, err
	}
	// Each batch prices the witness on fresh accumulators, opened before
	// the clock starts.
	const accs = 500
	per := make([]float64, 7)
	for r := range per {
		fresh := make([]model.Accumulator, accs)
		for i := range fresh {
			fresh[i] = scorer.Begin(cfg.N, mach.Owner)
		}
		start := time.Now()
		for _, a := range fresh {
			for _, ev := range events {
				a.Add(ev)
			}
		}
		per[r] = float64(time.Since(start).Nanoseconds()) / float64(accs*len(events))
	}
	observe = median(per)
	acc := scorer.Begin(cfg.N, mach.Owner)
	for _, ev := range events {
		acc.Add(ev)
	}
	var spare model.Accumulator
	fork = nsPerOp(20000, func(k int) {
		for i := 0; i < k; i++ {
			spare = forkAcc(acc, spare)
		}
	})
	return fork, observe, nil
}

// measureWorksteal runs explore-por-faults at two workers against one,
// with GOMAXPROCS raised to two for the comparison only.
func measureWorksteal(m metrics, t *tally, rng *rand.Rand) error {
	cfg, err := compileExplore(exploreSpec)
	if err != nil {
		return err
	}
	defer runtime.GOMAXPROCS(gomaxprocs)
	runtime.GOMAXPROCS(2)
	regs := [2]*telemetry.Registry{telemetry.New(), telemetry.New()}
	var times [2][]float64
	for rep := 0; rep < otherJobs; rep++ {
		first := rng.Intn(2)
		for k := 0; k < 2; k++ {
			w := (first + k) % 2
			c := cfg
			c.Workers, c.Telemetry = w+1, regs[w]
			start := time.Now()
			t.record(runExplore(c))
			times[w] = append(times[w], time.Since(start).Seconds())
		}
	}
	c := perJob(regs[1], otherJobs)
	m.set("worksteal.speedup", median(times[0])/median(times[1]), "ratio")
	m.set("worksteal.steals_per_job", c["repro_worksteal_steals_total"], "count")
	m.set("worksteal.splits_per_job", c["repro_worksteal_splits_total"], "count")
	return nil
}

// telemetryPairs is how many engine runs with and without a telemetry
// registry the telemetry comparison makes.
const telemetryPairs = 8

// measureTelemetry compares an engine run with a telemetry registry
// attached against the same run without one: the two configs differ in
// Config.Telemetry only, and both runs make the same check. It runs the
// workload's own engine, and the worstcase-cc search when the workload
// is experiments, which has no engine. Each pair runs back to back in
// an order the seed picks, so both share the host's state; the figure
// is the median over pairs of the traced-to-plain time ratio, minus 1.
func measureTelemetry(name string, m metrics, t *tally, rng *rand.Rand) error {
	var run func(reg *telemetry.Registry) error
	if name == "explore-por-faults" {
		cfg, err := compileExplore(exploreSpec)
		if err != nil {
			return err
		}
		run = func(reg *telemetry.Registry) error {
			c := cfg
			c.Telemetry = reg
			return runExplore(c)
		}
	} else {
		cfg, err := compileSearch(worstcaseSpec)
		if err != nil {
			return err
		}
		run = func(reg *telemetry.Registry) error {
			c := cfg
			c.Telemetry = reg
			res, err := search.Run(c)
			if err != nil {
				return err
			}
			return checkWorstcaseResult(res)
		}
	}
	reg := telemetry.New()
	ratios := make([]float64, telemetryPairs)
	for i := range ratios {
		var plainS, tracedS float64
		tracedFirst := rng.Intn(2) == 0
		for k := 0; k < 2; k++ {
			start := time.Now()
			if (k == 0) == tracedFirst {
				t.record(run(reg))
				tracedS = time.Since(start).Seconds()
			} else {
				t.record(run(nil))
				plainS = time.Since(start).Seconds()
			}
		}
		ratios[i] = tracedS / plainS
	}
	m.set("telemetry.overhead_frac", median(ratios)-1, "fraction")
	return nil
}

// workDir holds the temporary checkpoint files, inside the checkout.
const workDir = ".bench_build"

// measureCheckpoint compares the checkpointed search, snapshotting to a
// temporary directory under workDir, with the plain search on
// worstcase-cc.
func measureCheckpoint(m metrics, t *tally, rng *rand.Rand) error {
	cfg, err := compileSearch(worstcaseSpec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "checkpoint-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg := telemetry.New()
	ckCfg := cfg
	ckCfg.Telemetry = reg
	ck := search.Checkpoint{Path: filepath.Join(dir, "job.rpck"), Tag: "queue"}
	var plainS, ckS []float64
	for rep := 0; rep < checkpointPairs; rep++ {
		first := rng.Intn(2)
		for k := 0; k < 2; k++ {
			start := time.Now()
			var res *search.Result
			var err error
			if (first+k)%2 == 0 {
				res, err = search.Run(cfg)
				plainS = append(plainS, time.Since(start).Seconds())
			} else {
				res, err = search.RunCheckpointed(ckCfg, ck)
				ckS = append(ckS, time.Since(start).Seconds())
			}
			if err == nil {
				err = checkWorstcaseResult(res)
			}
			t.record(err)
		}
	}
	c := perJob(reg, checkpointPairs)
	m.set("checkpoint.overhead_frac", median(ckS)/median(plainS)-1, "fraction")
	m.set("checkpoint.commits_per_job", c["repro_checkpoint_writes_total"], "count")
	m.set("checkpoint.bytes_per_job", c["repro_checkpoint_bytes_total"], "bytes")
	return nil
}
