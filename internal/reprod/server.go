// Package reprod turns the repository's exploration and search engines
// into a long-lived service: an HTTP/JSON server that queues explore and
// worstcase jobs (described by jobspec Specs), runs them one at a time on
// a deterministic runner goroutine, streams incremental job status as
// NDJSON, and caches the regenerated paper tables E1–E12. Given a data
// directory it checkpoints exhaustive runs through internal/checkpoint,
// so a canceled job resumes from its snapshot instead of restarting.
// Errors crossing the HTTP boundary are classified by internal/errs and
// mapped to status codes, and every served worstcase result is first
// re-verified by an independent witness replay (search.Replay).
package reprod

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/explore"
	"repro/internal/jobspec"
	"repro/internal/search"
	"repro/internal/signal"
	"repro/internal/telemetry"
)

// The job lifecycle. A job moves queued → running → one of the terminal
// states; resume moves a canceled or failed job back to queued.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// job is the server-side record. All fields are guarded by Server.mu;
// the meter is written once before the job runs and is internally atomic.
type job struct {
	id        string
	spec      jobspec.Spec
	status    string
	errMsg    string
	verified  bool
	resumable bool
	result    json.RawMessage

	durable  bool          // eligible for a checkpoint file under dataDir
	resume   bool          // next run loads the snapshot
	canceled bool          // cancel channel already closed
	cancel   chan struct{} // closed to interrupt the running engine
	done     chan struct{} // closed when the current attempt reaches a terminal state
	meter    *telemetry.Meter
	// reg is the attempt's telemetry registry, written by the engines and
	// read by JobView and GET /metrics. Checkpointed attempts preload it
	// from the snapshot, so counters stay monotone across cancel/resume.
	reg *telemetry.Registry
}

// JobView is the wire form of a job, served by every job endpoint and as
// each NDJSON stream line.
type JobView struct {
	ID     string       `json:"id"`
	Spec   jobspec.Spec `json:"spec"`
	Status string       `json:"status"`
	// Error carries the failure or interruption message of a terminal job.
	Error string `json:"error,omitempty"`
	// Verified reports that a done worstcase result re-verified via an
	// independent witness replay before being served.
	Verified bool `json:"verified,omitempty"`
	// Resumable reports that POST /api/v1/jobs/{id}/resume can continue
	// this canceled or failed job.
	Resumable bool `json:"resumable,omitempty"`
	// States is the number of search states visited so far (live while
	// running; worstcase jobs only).
	States int64 `json:"states,omitempty"`
	// Counters are the job's cumulative telemetry counters (live while
	// running; monotone across cancel/resume for checkpointed jobs).
	Counters map[string]int64 `json:"counters,omitempty"`
	// Result is the kind-specific document (jobspec.WorstcaseDoc or
	// jobspec.ExploreDoc), identical to the matching CLI's -json output.
	Result json.RawMessage `json:"result,omitempty"`
}

// Server is the reprod job server. It implements http.Handler; create it
// with NewServer and Close it to stop the runner.
type Server struct {
	mux     *http.ServeMux
	dataDir string

	expOnce   sync.Once
	expTables []*core.Table
	expErr    error

	met serverMetrics

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	nextID int

	queue chan *job
	stop  chan struct{}
	wg    sync.WaitGroup
}

// NewServer builds a server. dataDir, when non-empty, is created if
// needed and holds one checkpoint snapshot per durable job; "" disables
// checkpointing (jobs still run, but cannot be canceled mid-run or
// resumed).
func NewServer(dataDir string) (*Server, error) {
	if dataDir != "" {
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, fmt.Errorf("reprod: %w", err)
		}
	}
	s := &Server{
		dataDir: dataDir,
		jobs:    make(map[string]*job),
		queue:   make(chan *job, 1024),
		stop:    make(chan struct{}),
		met:     newServerMetrics(),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /api/v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /api/v1/experiments/{id}", s.handleExperiment)
	s.mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("POST /api/v1/jobs/{id}/resume", s.handleResume)
	s.wg.Add(1)
	go s.runner()
	return s, nil
}

// ServeHTTP dispatches to the API routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.met.httpRequests.Inc(0)
	s.mux.ServeHTTP(w, r)
}

// Close stops the runner after its current job and waits for it.
func (s *Server) Close() {
	close(s.stop)
	s.wg.Wait()
}

func (s *Server) runner() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// view renders a job under the lock.
func (s *Server) view(j *job) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewLocked(j)
}

func (s *Server) viewLocked(j *job) JobView {
	v := JobView{
		ID:        j.id,
		Spec:      j.spec,
		Status:    j.status,
		Error:     j.errMsg,
		Verified:  j.verified,
		Resumable: j.resumable,
		Result:    j.result,
	}
	if j.meter != nil {
		v.States = j.meter.States()
	}
	if j.reg != nil {
		if vals := j.reg.CounterValues(); len(vals) > 0 {
			v.Counters = make(map[string]int64, len(vals))
			for _, cv := range vals {
				v.Counters[cv.Name] = cv.Value
			}
		}
	}
	return v
}

// durableSpec reports whether a spec's engine supports checkpointed,
// interruptible execution: exhaustive search and deduped exploration do;
// sample walks and the legacy replay enumeration are cheap or
// undecomposable and just rerun.
func durableSpec(spec *jobspec.Spec) bool {
	switch spec.Kind {
	case jobspec.KindWorstcase:
		return spec.Mode == "exhaustive"
	case jobspec.KindExplore:
		return spec.Dedup == nil || *spec.Dedup
	}
	return false
}

func (s *Server) checkpointPath(id string) string {
	return filepath.Join(s.dataDir, id+".rpck")
}

// runJob executes one dequeued job to a terminal state. Stale queue
// entries (a job canceled while queued and later resumed appears twice)
// are skipped by the status guard.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.status != JobQueued {
		s.mu.Unlock()
		return
	}
	j.status = JobRunning
	s.mu.Unlock()
	s.met.jobsRunning.Set(1) // the runner executes one job at a time

	result, verified, err := s.execute(j)

	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.met.jobsRunning.Set(0)
	switch {
	case err == nil:
		j.status, j.result, j.verified, j.errMsg = JobDone, result, verified, ""
		s.met.jobsCompleted.Inc(0)
	case errs.IsInterrupt(err):
		j.status, j.errMsg = JobCanceled, err.Error()
		j.resumable = j.durable
		s.met.jobsCanceled.Inc(0)
	default:
		j.status, j.errMsg = JobFailed, err.Error()
		j.resumable = j.durable
		s.met.jobsFailed.Inc(0)
	}
	close(j.done)
}

// execute runs the engine for one attempt and returns the result
// document. A found explore counterexample is a *completed* job: the
// document carries specHolds=false and the violation, mirroring how the
// service extends the CLI's exit-nonzero behavior.
func (s *Server) execute(j *job) (json.RawMessage, bool, error) {
	s.mu.Lock()
	spec, durable, resume, cancel := j.spec, j.durable, j.resume, j.cancel
	meter := telemetry.NewMeter()
	j.meter = meter
	// A fresh registry per attempt: checkpointed resumes preload it from
	// the snapshot's telemetry block, so the served counters continue
	// monotonically from the previous attempt's last commit.
	reg := telemetry.New()
	j.reg = reg
	s.mu.Unlock()

	switch spec.Kind {
	case jobspec.KindWorstcase:
		cfg, err := spec.SearchConfig()
		if err != nil {
			return nil, false, err
		}
		cfg.Meter = meter
		cfg.Telemetry = reg
		var res *search.Result
		if durable {
			res, err = search.RunCheckpointed(cfg, search.Checkpoint{
				Path:      s.checkpointPath(j.id),
				Tag:       spec.Alg,
				Resume:    resume,
				Interrupt: cancel,
			})
		} else {
			res, err = search.Run(cfg)
		}
		if err != nil {
			return nil, false, err
		}
		// Re-verify before serving: the witness must re-price to exactly
		// the reported worst cost on the independent replay path.
		rep, err := search.Replay(cfg, res.Witness)
		if err != nil {
			return nil, false, errs.Defectf("reprod: witness replay failed: %v", err)
		}
		if rep.Cost.Total != res.WorstCost {
			return nil, false, errs.Defectf(
				"reprod: witness replays to %d RMRs, result claims %d", rep.Cost.Total, res.WorstCost)
		}
		doc, err := json.Marshal(jobspec.NewWorstcaseDoc(&spec, res))
		return doc, true, err

	case jobspec.KindExplore:
		cfg, err := spec.ExploreConfig()
		if err != nil {
			return nil, false, err
		}
		cfg.Telemetry = reg
		var res *explore.Result
		if durable {
			res, err = explore.RunCheckpointed(cfg, explore.Checkpoint{
				Path:      s.checkpointPath(j.id),
				Tag:       spec.Alg,
				Resume:    resume,
				Interrupt: cancel,
			})
		} else {
			res, err = explore.Run(cfg)
		}
		var sv signal.SpecViolation
		if err != nil && res != nil && errors.As(err, &sv) {
			doc, merr := json.Marshal(jobspec.NewExploreDoc(&spec, res, err.Error()))
			return doc, false, merr
		}
		if err != nil {
			return nil, false, err
		}
		doc, merr := json.Marshal(jobspec.NewExploreDoc(&spec, res, ""))
		return doc, false, merr
	}
	return nil, false, errs.Defectf("reprod: unknown job kind %q", spec.Kind)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, errs.HTTPStatus(err), map[string]string{"error": err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// experimentDoc is the wire form of one regenerated paper table.
type experimentDoc struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	// Text is the stable one-line-per-row rendering that matches
	// cmd/experiments and the committed golden fixture.
	Text string `json:"text"`
}

// experiments regenerates the E1–E12 suite once and caches it for the
// server's lifetime: every table is a deterministic simulation, so a
// second computation could only return the same bytes.
func (s *Server) experiments() ([]*core.Table, error) {
	s.expOnce.Do(func() {
		s.expTables, s.expErr = core.ExperimentsContext(context.Background(), runtime.GOMAXPROCS(0))
	})
	return s.expTables, s.expErr
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	tables, err := s.experiments()
	if err != nil {
		writeErr(w, err)
		return
	}
	docs := make([]experimentDoc, 0, len(tables))
	for _, t := range tables {
		docs = append(docs, experimentDoc{
			ID: t.ID, Title: t.Title, Header: t.Header, Rows: t.Rows, Text: t.Text(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": docs})
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	tables, err := s.experiments()
	if err != nil {
		writeErr(w, err)
		return
	}
	id := r.PathValue("id")
	for _, t := range tables {
		if t.ID == id {
			writeJSON(w, http.StatusOK, experimentDoc{
				ID: t.ID, Title: t.Title, Header: t.Header, Rows: t.Rows, Text: t.Text(),
			})
			return
		}
	}
	writeErr(w, errs.Failuref(errs.CodeNotFound, "reprod: no experiment %q", id))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobspec.Spec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeErr(w, errs.Failuref(errs.CodeInvalid, "reprod: bad job body: %v", err))
		return
	}
	if err := spec.Normalize(); err != nil {
		writeErr(w, err)
		return
	}

	s.mu.Lock()
	j := &job{
		spec:    spec,
		status:  JobQueued,
		durable: s.dataDir != "" && durableSpec(&spec),
		cancel:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	j.id = fmt.Sprintf("j%d", s.nextID+1)
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		writeErr(w, errs.Failure(errs.CodeUnavailable, "reprod: job queue is full"))
		return
	}
	s.met.jobsSubmitted.Inc(0)
	s.nextID++
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	v := s.viewLocked(j)
	s.mu.Unlock()

	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.viewLocked(s.jobs[id]))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, errs.Failuref(errs.CodeNotFound, "reprod: no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.view(j))
}

// handleStream serves the job as NDJSON: one snapshot line immediately,
// periodic snapshots while the job is live, and a final line when it
// reaches a terminal state.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, errs.Failuref(errs.CodeNotFound, "reprod: no job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	emit := func() (string, error) {
		v := s.view(j)
		if err := enc.Encode(v); err != nil {
			return v.Status, err
		}
		flush()
		return v.Status, nil
	}
	status, err := emit()
	if err != nil {
		return
	}
	ticker := time.NewTicker(200 * time.Millisecond)
	defer ticker.Stop()
	for status == JobQueued || status == JobRunning {
		s.mu.Lock()
		done := j.done
		s.mu.Unlock()
		select {
		case <-r.Context().Done():
			return
		case <-done:
		case <-ticker.C:
		}
		if status, err = emit(); err != nil {
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, errs.Failuref(errs.CodeNotFound, "reprod: no job %q", r.PathValue("id")))
		return
	}
	s.mu.Lock()
	switch j.status {
	case JobQueued:
		// Never started: cancel instantly. The stale queue entry is
		// skipped by runJob's status guard.
		j.status = JobCanceled
		j.errMsg = "canceled while queued"
		j.resumable = true
		s.met.jobsCanceled.Inc(0)
		close(j.done)
	case JobRunning:
		if !j.durable {
			s.mu.Unlock()
			writeErr(w, errs.Failure(errs.CodeConflict,
				"reprod: job is running without a checkpoint and cannot be interrupted"))
			return
		}
		if !j.canceled {
			j.canceled = true
			close(j.cancel)
		}
		// The runner marks the job canceled once the engine unwinds; the
		// response reports the still-running state truthfully.
	default:
		s.mu.Unlock()
		writeErr(w, errs.Failuref(errs.CodeConflict, "reprod: job is already %s", j.status))
		return
	}
	v := s.viewLocked(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, errs.Failuref(errs.CodeNotFound, "reprod: no job %q", r.PathValue("id")))
		return
	}
	s.mu.Lock()
	if j.status != JobCanceled && j.status != JobFailed {
		status := j.status
		s.mu.Unlock()
		writeErr(w, errs.Failuref(errs.CodeConflict, "reprod: cannot resume a %s job", status))
		return
	}
	// Load the snapshot if one was committed; a job canceled before its
	// first snapshot simply restarts from scratch.
	j.resume = false
	if j.durable {
		if _, err := os.Stat(s.checkpointPath(j.id)); err == nil {
			j.resume = true
		}
	}
	prevStatus, prevErr, prevResumable := j.status, j.errMsg, j.resumable
	j.status, j.errMsg, j.resumable = JobQueued, "", false
	j.canceled = false
	j.cancel = make(chan struct{})
	j.done = make(chan struct{})
	select {
	case s.queue <- j:
	default:
		j.status, j.errMsg, j.resumable = prevStatus, prevErr, prevResumable
		s.mu.Unlock()
		writeErr(w, errs.Failure(errs.CodeUnavailable, "reprod: job queue is full"))
		return
	}
	v := s.viewLocked(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, v)
}
