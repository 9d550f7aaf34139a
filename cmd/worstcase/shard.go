package main

// Cross-process sharding: -shards N runs search.RunSharded with one
// worker process per shard. Each worker is this binary re-executed with
// the coordinator's normalized job spec in the workerEnv variable; it
// compiles the spec exactly as the coordinator did, reads unit prefixes
// as JSON lines on stdin and writes one reply line per request. The
// unit loop, the snapshots, -stop-after and the interrupt all belong to
// RunSharded; this file only starts, feeds and reaps the processes.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"

	"repro/internal/errs"
	"repro/internal/jobspec"
	"repro/internal/search"
)

// workerEnv carries the job spec, as JSON, into a worker process. Its
// presence is what makes a process a worker: main and, under `go test`,
// TestMain route such a process into runWorker before anything parses
// the command line.
const workerEnv = "GO_WORSTCASE_WORKER"

// maxRequestBytes bounds one request line: a unit prefix holds at most
// 64 small choice indices.
const maxRequestBytes = 64 << 10

// unitRequest is one line of the coordinator-to-worker stream.
type unitRequest struct {
	Prefix []int `json:"prefix"`
}

// unitReply is one line of the worker-to-coordinator stream: exactly one
// of Result and Error is set.
type unitReply struct {
	Result *search.UnitResult `json:"result,omitempty"`
	Error  string             `json:"error,omitempty"`
}

// runWorker is a worker process: compile the spec, then serve units
// until stdin closes.
func runWorker(specJSON string, in io.Reader, out io.Writer) error {
	var spec jobspec.Spec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return errs.Failuref(errs.CodeInvalid, "shard worker: job spec: %v", err)
	}
	cfg, err := spec.SearchConfig()
	if err != nil {
		return err
	}
	return serveShardUnits(cfg, in, out)
}

// serveShardUnits answers every request line with one reply line: the
// unit's result, or an error for a line that is no request or names no
// unit. It returns at the end of the input, or with an error when a line
// exceeds maxRequestBytes (after replying to it) or a reply cannot be
// written.
func serveShardUnits(cfg search.Config, in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(nil, maxRequestBytes)
	enc := json.NewEncoder(out)
	for sc.Scan() {
		var rep unitReply
		var req unitRequest
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			rep.Error = fmt.Sprintf("shard worker: bad request: %v", err)
		} else if res, err := search.ComputeUnit(cfg, req.Prefix); err != nil {
			rep.Error = err.Error()
		} else {
			rep.Result = res
		}
		if err := enc.Encode(rep); err != nil {
			return fmt.Errorf("shard worker: write reply: %w", err)
		}
	}
	if err := sc.Err(); err != nil {
		err = fmt.Errorf("shard worker: read request: %w", err)
		enc.Encode(unitReply{Error: err.Error()})
		return err
	}
	return nil
}

// shardProcs is a coordinator's worker processes, each started on its
// first unit, so a run with fewer pending units than shards starts
// fewer processes. Worker i only ever runs on RunSharded's goroutine i.
type shardProcs struct {
	spec   []byte
	errOut io.Writer
	procs  []*shardProc
}

// shardProc is one live worker process and its two JSON streams.
type shardProc struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	enc *json.Encoder
	dec *json.Decoder
}

func newShardProcs(spec jobspec.Spec, shards int, errOut io.Writer) (*shardProcs, error) {
	blob, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return &shardProcs{spec: blob, errOut: errOut, procs: make([]*shardProc, shards)}, nil
}

// compute round-trips one unit through worker i, starting it if need
// be. A worker that cannot be started or stops answering is
// errs.CodeUnavailable; an error the worker reports is errs.CodeInvalid.
func (p *shardProcs) compute(i int, prefix []int) (*search.UnitResult, error) {
	w := p.procs[i]
	if w == nil {
		var err error
		if w, err = p.start(); err != nil {
			return nil, errs.Wrap(err, errs.ClassFailure, errs.CodeUnavailable, fmt.Sprintf("shard worker %d: start", i))
		}
		p.procs[i] = w
	}
	if err := w.enc.Encode(unitRequest{Prefix: prefix}); err != nil {
		return nil, errs.Wrap(err, errs.ClassFailure, errs.CodeUnavailable, fmt.Sprintf("shard worker %d: send unit", i))
	}
	var rep unitReply
	if err := w.dec.Decode(&rep); err != nil {
		return nil, errs.Wrap(err, errs.ClassFailure, errs.CodeUnavailable, fmt.Sprintf("shard worker %d exited mid-unit", i))
	}
	if rep.Error != "" {
		return nil, errs.Failuref(errs.CodeInvalid, "shard worker %d: %s", i, rep.Error)
	}
	return rep.Result, nil
}

func (p *shardProcs) start() (*shardProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), workerEnv+"="+string(p.spec))
	cmd.Stderr = p.errOut
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &shardProc{cmd: cmd, in: in, enc: json.NewEncoder(in), dec: json.NewDecoder(out)}, nil
}

// close ends every started worker and reaps it: closing stdin ends a
// healthy worker's loop; after a failed run (failed true) the workers
// are killed as well, since a broken stream may leave one mid-reply.
// It reports the first worker that exited badly from a run that had not
// failed.
func (p *shardProcs) close(failed bool) error {
	var first error
	for i, w := range p.procs {
		if w == nil {
			continue
		}
		w.in.Close()
		if failed {
			w.cmd.Process.Kill()
		}
		if err := w.cmd.Wait(); err != nil && !failed && first == nil {
			first = errs.Wrap(err, errs.ClassFailure, errs.CodeUnavailable, fmt.Sprintf("shard worker %d exit", i))
		}
	}
	return first
}

// runShards runs the search on shards worker processes and reaps them.
func runShards(cfg search.Config, spec jobspec.Spec, ck search.Checkpoint, shards int, errOut io.Writer) (*search.Result, error) {
	procs, err := newShardProcs(spec, shards, errOut)
	if err != nil {
		return nil, err
	}
	res, err := search.RunSharded(cfg, ck, shards, procs.compute)
	if cerr := procs.close(err != nil); err == nil {
		err = cerr
	}
	return res, err
}
