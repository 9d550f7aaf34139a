package main

// Cross-process sharding: -shards N re-executes this binary N times with
// -shard-worker, feeds each worker unit prefixes as JSON lines on stdin,
// and reads one search.UnitResult JSON line back per unit. Workers are
// pure functions of (flag set, prefix) — see internal/search/sharded.go —
// so the merged result is deterministic for any shard count and any
// assignment of units to workers. With -checkpoint the coordinator
// snapshots its accumulated (entries, counters, done set) after every
// completed unit, so a killed coordinator resumes without recomputing
// finished units; in-flight worker units are simply recomputed.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/errs"
	"repro/internal/jobspec"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// The env hooks that let the coordinator re-execute itself as a worker
// even when "itself" is a test binary: main_test.go's TestMain runs
// run(workerArgs) and exits when workerEnv is set, before the testing
// package ever parses flags.
const (
	workerEnv     = "GO_WORSTCASE_WORKER"
	workerArgsEnv = "GO_WORSTCASE_ARGS"
)

// unitRequest is one line of the coordinator-to-worker stream.
type unitRequest struct {
	Prefix []int `json:"prefix"`
}

// unitReply is one line of the worker-to-coordinator stream.
type unitReply struct {
	Result *search.UnitResult `json:"result,omitempty"`
	Error  string             `json:"error,omitempty"`
}

// serveShardUnits is the -shard-worker loop: compute every requested unit
// against a fresh private table until stdin closes.
func serveShardUnits(cfg search.Config, in io.Reader, out io.Writer) error {
	dec := json.NewDecoder(in)
	enc := json.NewEncoder(out)
	for {
		var req unitRequest
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("shard worker: read request: %w", err)
		}
		var rep unitReply
		if res, err := search.ComputeUnit(cfg, req.Prefix); err != nil {
			rep.Error = err.Error()
		} else {
			rep.Result = res
		}
		if err := enc.Encode(rep); err != nil {
			return fmt.Errorf("shard worker: write reply: %w", err)
		}
	}
}

// shardOpts carries the coordinator's flag settings.
type shardOpts struct {
	shards     int
	shardDepth int
	checkpoint string
	resume     bool
	stopAfter  int
	interrupt  <-chan struct{}
	meter      *telemetry.Meter
}

// shardWorker is one live worker process and its two JSON streams.
type shardWorker struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	enc *json.Encoder
	dec *json.Decoder
}

func startShardWorker(spec jobspec.Spec, errOut io.Writer) (*shardWorker, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("shard coordinator: %w", err)
	}
	argv := []string{
		"-alg", spec.Alg, "-model", spec.Model,
		"-n", strconv.Itoa(spec.Waiters), "-polls", strconv.Itoa(spec.Polls),
		"-depth", strconv.Itoa(spec.Depth), "-mode", spec.Mode,
		"-shard-worker",
	}
	blob, err := json.Marshal(argv)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, argv...)
	cmd.Env = append(os.Environ(), workerEnv+"=1", workerArgsEnv+"="+string(blob))
	cmd.Stderr = errOut
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("shard coordinator: %w", err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("shard coordinator: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("shard coordinator: start worker: %w", err)
	}
	return &shardWorker{cmd: cmd, in: in, enc: json.NewEncoder(in), dec: json.NewDecoder(out)}, nil
}

// compute round-trips one unit through the worker.
func (w *shardWorker) compute(prefix []int) (*search.UnitResult, error) {
	if err := w.enc.Encode(unitRequest{Prefix: prefix}); err != nil {
		return nil, fmt.Errorf("send unit: %w", err)
	}
	var rep unitReply
	if err := w.dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("read unit result: %w", err)
	}
	if rep.Error != "" {
		return nil, errors.New(rep.Error)
	}
	if rep.Result == nil {
		return nil, errors.New("worker sent neither result nor error")
	}
	return rep.Result, nil
}

// shutdown closes the worker's stdin (ending its loop) and reaps it.
func (w *shardWorker) shutdown() error {
	w.in.Close()
	return w.cmd.Wait()
}

// kill tears a worker down without waiting for a clean exit.
func (w *shardWorker) kill() {
	w.in.Close()
	w.cmd.Process.Kill()
	w.cmd.Wait()
}

type unitOutcome struct {
	idx int
	res *search.UnitResult
	err error
}

// runCoordinator shards the exhaustive search across worker processes and
// merges their unit results into the single-process answer.
func runCoordinator(cfg search.Config, spec jobspec.Spec, opts shardOpts, errOut io.Writer) (*search.Result, error) {
	d, err := search.EffectiveShardDepth(cfg, opts.shardDepth)
	if err != nil {
		return nil, err
	}
	units, err := search.ExpandUnits(cfg, d)
	if err != nil {
		return nil, err
	}
	fp := search.Fingerprint(spec.Alg, cfg, d, true)

	counters := checkpoint.Counters{}
	var doneList []uint32
	var entries []checkpoint.Entry
	doneSet := map[uint32]bool{}
	if opts.resume {
		if opts.checkpoint == "" {
			return nil, errs.Failure(errs.CodeInvalid, "-resume requires -checkpoint")
		}
		snap, err := checkpoint.Read(opts.checkpoint)
		if err != nil {
			return nil, err
		}
		if snap.Kind != checkpoint.KindSearch {
			return nil, errs.Failuref(errs.CodeConflict,
				"snapshot %s belongs to %s, not a search", opts.checkpoint, snap.Kind)
		}
		if snap.Fingerprint != fp {
			return nil, errs.Failuref(errs.CodeConflict,
				"snapshot %s was written by a different configuration (%s, want %s)",
				opts.checkpoint, snap.Fingerprint, fp)
		}
		if !unitsEqual(snap.Units, units) {
			return nil, errs.Defectf("snapshot %s unit list disagrees with re-derivation", opts.checkpoint)
		}
		counters = snap.Counters
		doneList = snap.Done
		doneSet = snap.DoneSet()
		entries = snap.Entries
	}

	var pending []int
	for i := range units {
		if !doneSet[uint32(i)] {
			pending = append(pending, i)
		}
	}

	writeSnap := func() error {
		if opts.checkpoint == "" {
			return nil
		}
		snap := &checkpoint.Snapshot{
			Kind:        checkpoint.KindSearch,
			Fingerprint: fp,
			ShardDepth:  d,
			Units:       units,
			Done:        doneList,
			Counters:    counters,
			Entries:     append([]checkpoint.Entry(nil), entries...),
		}
		snap.SortEntries()
		if err := checkpoint.Write(opts.checkpoint, snap); err != nil {
			return err
		}
		if opts.meter != nil {
			opts.meter.Checkpointed()
		}
		return nil
	}

	if len(pending) > 0 {
		nw := opts.shards
		if nw > len(pending) {
			nw = len(pending)
		}
		var workers []*shardWorker
		for i := 0; i < nw; i++ {
			w, err := startShardWorker(spec, errOut)
			if err != nil {
				for _, started := range workers {
					started.kill()
				}
				return nil, err
			}
			workers = append(workers, w)
		}

		feed := make(chan int)
		results := make(chan unitOutcome, nw)
		stopFeed := make(chan struct{})
		var stopOnce sync.Once
		stop := func() { stopOnce.Do(func() { close(stopFeed) }) }
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func(w *shardWorker) {
				defer wg.Done()
				for idx := range feed {
					res, err := w.compute(units[idx])
					results <- unitOutcome{idx: idx, res: res, err: err}
					if err != nil {
						return // a broken stream cannot carry further units
					}
				}
			}(w)
		}
		go func() {
			defer close(feed)
			for _, idx := range pending {
				select {
				case feed <- idx:
				case <-stopFeed:
					return
				}
			}
		}()
		go func() { wg.Wait(); close(results) }()

		completed := 0
		interrupted := false
		var failure error
		for out := range results {
			if out.err != nil {
				if failure == nil {
					failure = fmt.Errorf("shard unit %v: %w", units[out.idx], out.err)
				}
				stop()
				continue // keep draining in-flight results
			}
			counters.Add(out.res.Counters)
			entries = append(entries, out.res.Entry)
			doneList = append(doneList, uint32(out.idx))
			completed++
			if err := writeSnap(); err != nil {
				if failure == nil {
					failure = err
				}
				stop()
				continue
			}
			if opts.stopAfter > 0 && completed >= opts.stopAfter {
				interrupted = true
				stop()
			}
			select {
			case <-opts.interrupt:
				interrupted = true
				stop()
			default:
			}
		}
		stop()
		for _, w := range workers {
			if err := w.shutdown(); err != nil && failure == nil && !interrupted {
				failure = fmt.Errorf("shard worker exit: %w", err)
			}
		}
		if failure != nil {
			return nil, failure
		}
		if interrupted {
			return nil, errs.Interrupted(fmt.Sprintf(
				"stopped after %d units this run; completed work is snapshotted", completed))
		}
	}

	return search.MergeShardedState(cfg, entries, counters)
}

func unitsEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
