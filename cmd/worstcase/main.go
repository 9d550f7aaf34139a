// Command worstcase synthesizes the schedule that maximizes a signaling
// workload's RMR bill — internal/search as a CLI. Exhaustive mode reports
// the exact worst case and its lexicographically least witness schedule;
// sample mode reports a seeded Monte Carlo summary (max, mean, quantiles)
// for configurations beyond exhaustive reach.
//
// Usage:
//
//	worstcase -alg flag -n 2 -depth 10 -mode exhaustive
//	worstcase -alg queue -n 3 -polls 3 -depth 16 -model cc
//	worstcase -alg flag -n 8 -depth 40 -mode sample -seed 1 -walks 4096
//	worstcase -alg flag -n 2 -depth 10 -json
//	worstcase -alg flag -n 8 -polls 1 -depth 12 -reduce
//
// -reduce layers partial-order and symmetry reduction on the exhaustive
// engine: sleep sets skip schedules whose cost is provably realized by an
// explored commuted schedule, and PID-permuted states of interchangeable
// waiters merge. The reductions engage only when the cost model asserts
// the matching invariance capability (all built-in models assert
// commutation-invariance; only dsm asserts permutation-invariance) and
// are conservatively off otherwise. The reported worst cost is unchanged
// and the witness still replays to exactly that cost, but it is no longer
// the lexicographically least such schedule; paths/pruned shrink to the
// reduced space and the -json document gains reduced, stepsSlept and
// symmetryMerges fields.
//
// Deep exhaustive runs can be made durable and distributed:
//
//	worstcase -alg queue -n 3 -depth 14 -checkpoint run.rpck   # snapshot between units
//	worstcase -alg queue -n 3 -depth 14 -checkpoint run.rpck -resume
//	worstcase -alg queue -n 3 -depth 14 -shards 4              # 4 worker processes
//	worstcase ... -progress 5s                                 # states/sec on stderr
//
// A checkpointed run that is killed (or deterministically stopped with
// -stop-after; exit code 3) resumes from its snapshot and produces the
// byte-identical result of an uninterrupted run. Every stdout line is
// deterministic for the flag set (any worker count); timing and progress
// go to stderr. -json prints the full result as one JSON object instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	osignal "os/signal"
	"strings"
	"time"

	"repro/internal/errs"
	"repro/internal/jobspec"
	"repro/internal/prof"
	"repro/internal/search"
	"repro/internal/telemetry"
)

func main() {
	var err error
	if spec, ok := os.LookupEnv(workerEnv); ok {
		// A shard worker: its coordinator owns the terminal's interrupt,
		// so the unit in hand finishes and the coordinator stops between
		// units.
		osignal.Ignore(os.Interrupt)
		err = runWorker(spec, os.Stdin, os.Stdout)
	} else {
		err = run(os.Args[1:], os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "worstcase:", err)
		if errs.IsInterrupt(err) {
			os.Exit(3) // interrupted, snapshot intact: resume with -resume
		}
		os.Exit(1)
	}
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("worstcase", flag.ContinueOnError)
	algName := fs.String("alg", "flag", "signaling algorithm (see adversary -list)")
	modelName := fs.String("model", "dsm", "cost model to maximize: dsm, cc, cc-wb, cc-dir-ideal")
	waiters := fs.Int("n", 2, "number of polling waiters")
	polls := fs.Int("polls", 2, "polls per waiter")
	depth := fs.Int("depth", 10, "scheduling-choice depth bound")
	mode := fs.String("mode", "exhaustive", "search mode: exhaustive or sample")
	seed := fs.Int64("seed", 1, "base seed of sample mode (echoed in the result)")
	walks := fs.Int("walks", 512, "random walks in sample mode")
	workers := fs.Int("workers", 0,
		"search workers (0 = one per core); results are identical for every count")
	reduce := fs.Bool("reduce", false,
		"partial-order + symmetry reduction (exhaustive mode; same worst cost, fewer states visited)")
	faults := fs.Int("faults", 0,
		"fault budget k: schedules may crash processes or drop CAS responses up to k times (0 = no faults)")
	faultKinds := fs.String("fault-kinds", "",
		"comma-separated fault kinds to inject: crash, lostcas (default crash,lostcas when -faults > 0)")
	faultVol := fs.String("fault-vol", "",
		"crash volatility: stable (frame lost only) or owned (owned words revert to initial values); default stable")
	jsonOut := fs.Bool("json", false, "print the full result as one JSON object")
	ckPath := fs.String("checkpoint", "",
		"snapshot file for a durable exhaustive run; a killed run resumes with -resume")
	resume := fs.Bool("resume", false, "resume from the -checkpoint snapshot instead of starting fresh")
	shardDepth := fs.Int("shard-depth", 0, "checkpoint/shard unit prefix depth (0 = default 3)")
	stopAfter := fs.Int("stop-after", 0,
		"deterministically interrupt after this many committed units (testing; exits 3)")
	shards := fs.Int("shards", 0, "shard the exhaustive search across this many worker OS processes")
	progressEvery := fs.Duration("progress", 0,
		"emit states/sec + checkpoint-age lines to stderr at this interval (0 = off)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "",
		"write a heap profile to this file (and an allocation profile to file.allocs) on exit")
	blockProfile := fs.String("blockprofile", "", "write a blocking profile to this file on exit")
	mutexProfile := fs.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
	telemetryOut := fs.String("telemetry", "",
		"emit periodic NDJSON telemetry snapshots to this file (\"-\" = stderr); stdout stays byte-identical")
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProf, err := prof.StartConfig(prof.Config{
		CPU: *cpuProfile, Mem: *memProfile, Block: *blockProfile, Mutex: *mutexProfile,
	})
	if err != nil {
		return err
	}
	defer stopProf() // covers clean exits and the SIGINT exit-code-3 path

	spec := jobspec.Spec{
		Kind:       jobspec.KindWorstcase,
		Alg:        *algName,
		Model:      *modelName,
		Waiters:    *waiters,
		Polls:      *polls,
		Depth:      *depth,
		Mode:       *mode,
		Seed:       *seed,
		Walks:      *walks,
		Reduce:     *reduce,
		Workers:    *workers,
		Faults:     *faults,
		FaultKinds: *faultKinds,
		FaultVol:   *faultVol,
	}
	cfg, err := spec.SearchConfig()
	if err != nil {
		return err
	}

	var meter *telemetry.Meter
	if *progressEvery > 0 {
		meter = telemetry.NewMeter()
		cfg.Meter = meter
		stop := meter.Start(errOut, *progressEvery)
		defer stop()
	}
	if *telemetryOut != "" {
		// Telemetry goes to its own sink (file or stderr), never stdout:
		// the deterministic summary must stay byte-identical with the
		// flag on or off.
		reg := telemetry.New()
		stopTel, err := telemetry.StartNDJSON(*telemetryOut, errOut, reg, 0)
		if err != nil {
			return err
		}
		defer stopTel() // final snapshot on every exit path
		cfg.Telemetry = reg
	}
	durable := *ckPath != "" || *shards > 1
	if durable && cfg.Mode != search.ModeExhaustive {
		return errs.Failure(errs.CodeInvalid,
			"only exhaustive mode checkpoints or shards (sample walks are cheap to rerun)")
	}
	var interrupt chan struct{}
	if durable {
		// SIGINT becomes a clean between-units stop: the snapshot on disk
		// stays valid and -resume continues the run.
		sig := make(chan os.Signal, 1)
		osignal.Notify(sig, os.Interrupt)
		defer close(sig)        // after Stop: lets the watcher goroutine exit
		defer osignal.Stop(sig) // runs first, so close never races a delivery
		interrupt = make(chan struct{})
		go func() {
			if _, ok := <-sig; ok {
				close(interrupt)
			}
		}()
	}

	start := time.Now()
	var res *search.Result
	ck := search.Checkpoint{
		Path:       *ckPath,
		Tag:        spec.Alg,
		ShardDepth: *shardDepth,
		Resume:     *resume,
		StopAfter:  *stopAfter,
		Interrupt:  interrupt,
	}
	switch {
	case *shards > 1:
		res, err = runShards(cfg, spec, ck, *shards, errOut)
	case *ckPath != "":
		res, err = search.RunCheckpointed(cfg, ck)
	default:
		res, err = search.Run(cfg)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	// Timing and pool size are the only nondeterministic outputs; they go
	// to stderr so stdout diffs cleanly against golden summaries.
	fmt.Fprintf(errOut, "workers: %d, elapsed: %v\n", res.Workers, elapsed.Round(time.Millisecond))

	if *jsonOut {
		return json.NewEncoder(out).Encode(jobspec.NewWorstcaseDoc(&spec, res))
	}

	switch res.Mode {
	case search.ModeExhaustive:
		fmt.Fprintf(out, "%s: worst %s cost over %d waiters x %d polls = %d RMRs (depth <= %d)\n",
			spec.Alg, res.Model, spec.Waiters, spec.Polls, res.WorstCost, spec.Depth)
		fmt.Fprintf(out, "witness: %s (truncated: %v)\n",
			strings.Join(res.Schedule, " "), res.WitnessTruncated)
		fmt.Fprintf(out, "mode: exhaustive, paths: %d, pruned: %d, truncated: %d, max depth reached: %d",
			res.Paths, res.Pruned, res.Truncated, res.MaxDepthReached)
		if res.Reduced {
			fmt.Fprintf(out, ", steps slept: %d, symmetry merges: %d", res.StepsSlept, res.SymmetryMerges)
		}
		fmt.Fprintln(out)
	case search.ModeSample:
		fmt.Fprintf(out, "%s: sampled worst %s cost over %d waiters x %d polls = %d RMRs (depth <= %d, seed %d, %d walks)\n",
			spec.Alg, res.Model, spec.Waiters, spec.Polls, res.WorstCost, spec.Depth, res.Seed, res.Walks)
		fmt.Fprintf(out, "witness: %s (truncated: %v)\n",
			strings.Join(res.Schedule, " "), res.WitnessTruncated)
		fmt.Fprintf(out, "mode: sample, mean: %.2f, p50: %d, p90: %d, p99: %d, truncated: %d, max depth reached: %d\n",
			res.MeanCost, res.Q.P50, res.Q.P90, res.Q.P99, res.Truncated, res.MaxDepthReached)
	}
	return nil
}
