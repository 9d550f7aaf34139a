package reprod

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobspec"
	"repro/internal/search"
)

func newTestServer(t *testing.T, dataDir string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body any, into any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// awaitTerminal polls until the job leaves the live states.
func awaitTerminal(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var v JobView
		if code := getJSON(t, base+"/api/v1/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if v.Status != JobQueued && v.Status != JobRunning {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, "")
	var body map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &body); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, body)
	}
}

// TestOversizedJobBodyRejected: a job body past the cap is refused with
// a typed too_large failure, and the server keeps taking valid jobs.
func TestOversizedJobBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, "")
	body := `{"kind":"worstcase","alg":"` + strings.Repeat("x", maxJobBody) + `"}`
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var failed map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&failed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(failed["error"], "exceeds") {
		t.Fatalf("oversized body: status %d, body %v", resp.StatusCode, failed)
	}

	spec := jobspec.Spec{Kind: jobspec.KindWorstcase, Alg: "flag", Waiters: 2, Polls: 2, Depth: 8}
	var created JobView
	if code := postJSON(t, ts.URL+"/api/v1/jobs", spec, &created); code != http.StatusAccepted {
		t.Fatalf("submit after oversized body: status %d", code)
	}
	if v := awaitTerminal(t, ts.URL, created.ID); v.Status != JobDone {
		t.Fatalf("job after oversized body ended %s: %s", v.Status, v.Error)
	}
}

// TestWorstcaseJobEndToEnd: a queued worstcase job completes, its result
// document is byte-identical to the CLI's -json output for the same spec,
// and it is served only after the independent replay re-verification.
func TestWorstcaseJobEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, "")
	spec := jobspec.Spec{Kind: jobspec.KindWorstcase, Alg: "flag", Waiters: 2, Polls: 2, Depth: 10}

	var created JobView
	if code := postJSON(t, ts.URL+"/api/v1/jobs", spec, &created); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if created.ID != "j1" || created.Status != JobQueued {
		t.Fatalf("created = %+v", created)
	}

	v := awaitTerminal(t, ts.URL, created.ID)
	if v.Status != JobDone || !v.Verified {
		t.Fatalf("job ended %s (verified %v): %s", v.Status, v.Verified, v.Error)
	}

	// The exact document the CLI would print for the same flags.
	cfg, err := spec.SearchConfig()
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(jobspec.NewWorstcaseDoc(&spec, res))
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Result) != string(want) {
		t.Fatalf("served result drifted from the CLI document:\n got: %s\nwant: %s", v.Result, want)
	}
}

// TestExploreJobEndToEnd: an explore job completes with specHolds true
// and the CLI-identical document.
func TestExploreJobEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, "")
	spec := jobspec.Spec{Kind: jobspec.KindExplore, Alg: "queue", Waiters: 2, Polls: 2, Depth: 9}
	var created JobView
	if code := postJSON(t, ts.URL+"/api/v1/jobs", spec, &created); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	v := awaitTerminal(t, ts.URL, created.ID)
	if v.Status != JobDone {
		t.Fatalf("job ended %s: %s", v.Status, v.Error)
	}
	var doc jobspec.ExploreDoc
	if err := json.Unmarshal(v.Result, &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.SpecHolds || doc.Paths == 0 || doc.Engine != "backtracking+dedup" {
		t.Fatalf("explore doc wrong: %s", v.Result)
	}
}

// TestJobOrderAndListing: IDs are deterministic (j1, j2, ...) and the
// listing preserves submission order.
func TestJobOrderAndListing(t *testing.T) {
	_, ts := newTestServer(t, "")
	for i := 0; i < 3; i++ {
		spec := jobspec.Spec{Kind: jobspec.KindWorstcase, Alg: "flag", Depth: 6}
		var created JobView
		if code := postJSON(t, ts.URL+"/api/v1/jobs", spec, &created); code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		if want := fmt.Sprintf("j%d", i+1); created.ID != want {
			t.Fatalf("job %d got ID %s, want %s", i, created.ID, want)
		}
	}
	var listing struct{ Jobs []JobView }
	if code := getJSON(t, ts.URL+"/api/v1/jobs", &listing); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(listing.Jobs) != 3 || listing.Jobs[0].ID != "j1" || listing.Jobs[2].ID != "j3" {
		t.Fatalf("listing wrong: %+v", listing.Jobs)
	}
}

// TestErrorMapping: the errs taxonomy reaches the wire — bad specs are
// 400, unknown jobs 404, illegal transitions 409.
func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, "")
	if code := postJSON(t, ts.URL+"/api/v1/jobs", jobspec.Spec{Kind: "sweep"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad kind: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/api/v1/jobs",
		jobspec.Spec{Kind: jobspec.KindExplore, Alg: "leader"}, nil); code != http.StatusBadRequest {
		t.Fatalf("non-polling alg: status %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/jobs/j99", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/experiments/E99", nil); code != http.StatusNotFound {
		t.Fatalf("unknown experiment: status %d, want 404", code)
	}

	// Cancel after completion is a conflict.
	spec := jobspec.Spec{Kind: jobspec.KindWorstcase, Alg: "flag", Depth: 6}
	var created JobView
	postJSON(t, ts.URL+"/api/v1/jobs", spec, &created)
	awaitTerminal(t, ts.URL, created.ID)
	if code := postJSON(t, ts.URL+"/api/v1/jobs/"+created.ID+"/cancel", nil, nil); code != http.StatusConflict {
		t.Fatalf("cancel done job: status %d, want 409", code)
	}
	if code := postJSON(t, ts.URL+"/api/v1/jobs/"+created.ID+"/resume", nil, nil); code != http.StatusConflict {
		t.Fatalf("resume done job: status %d, want 409", code)
	}
}

// TestCancelResumeRoundTrip: a durable job canceled early resumes (from
// its snapshot if one committed, from scratch otherwise) and finishes
// with the exact document of an uninterrupted run.
func TestCancelResumeRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	spec := jobspec.Spec{Kind: jobspec.KindWorstcase, Alg: "queue", Waiters: 2, Polls: 2, Depth: 11}

	var created JobView
	if code := postJSON(t, ts.URL+"/api/v1/jobs", spec, &created); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	// Cancel immediately: depending on timing this lands while queued or
	// while running (the checkpointed engine aborts between units). If
	// the job already finished, the conflict answer is correct — nothing
	// left to assert about resumption.
	code := postJSON(t, ts.URL+"/api/v1/jobs/"+created.ID+"/cancel", nil, nil)
	v := awaitTerminal(t, ts.URL, created.ID)
	if code == http.StatusConflict {
		if v.Status != JobDone {
			t.Fatalf("cancel conflicted but job is %s", v.Status)
		}
	} else {
		if v.Status != JobCanceled || !v.Resumable {
			t.Fatalf("after cancel: %+v", v)
		}
		if code := postJSON(t, ts.URL+"/api/v1/jobs/"+created.ID+"/resume", nil, nil); code != http.StatusAccepted {
			t.Fatalf("resume: status %d", code)
		}
		v = awaitTerminal(t, ts.URL, created.ID)
		if v.Status != JobDone || !v.Verified {
			t.Fatalf("resumed job ended %s (verified %v): %s", v.Status, v.Verified, v.Error)
		}
	}

	cfg, err := spec.SearchConfig()
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(jobspec.NewWorstcaseDoc(&spec, res))
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Result) != string(want) {
		t.Fatalf("resumed result drifted:\n got: %s\nwant: %s", v.Result, want)
	}
}

// TestStream: the NDJSON stream ends with a terminal snapshot carrying
// the result document.
func TestStream(t *testing.T) {
	_, ts := newTestServer(t, "")
	spec := jobspec.Spec{Kind: jobspec.KindWorstcase, Alg: "flag", Depth: 8}
	var created JobView
	if code := postJSON(t, ts.URL+"/api/v1/jobs", spec, &created); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + created.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var last JobView
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 || last.Status != JobDone || len(last.Result) == 0 {
		t.Fatalf("stream ended with %d lines, last %+v", lines, last)
	}
}

// TestMetricsAndJobCounters: a durable job leaves live telemetry behind —
// the JobView carries nonzero engine counters, and GET /metrics serves a
// Prometheus exposition holding the server families, the merged per-job
// engine/worksteal/checkpoint families and the derived checkpoint age.
func TestMetricsAndJobCounters(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	spec := jobspec.Spec{Kind: jobspec.KindWorstcase, Alg: "flag", Waiters: 2, Polls: 2, Depth: 10}
	var created JobView
	if code := postJSON(t, ts.URL+"/api/v1/jobs", spec, &created); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	v := awaitTerminal(t, ts.URL, created.ID)
	if v.Status != JobDone {
		t.Fatalf("job ended %s: %s", v.Status, v.Error)
	}
	if v.Counters["repro_engine_nodes_total"] == 0 || v.Counters["repro_engine_paths_total"] == 0 {
		t.Fatalf("done job served empty engine counters: %v", v.Counters)
	}
	if v.Counters["repro_checkpoint_writes_total"] == 0 {
		t.Fatalf("durable job recorded no checkpoint writes: %v", v.Counters)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	required := []string{
		"repro_jobs_submitted_total",
		"repro_jobs_completed_total",
		"repro_jobs_failed_total",
		"repro_jobs_canceled_total",
		"repro_jobs_running",
		"repro_http_requests_total",
		"repro_engine_nodes_total",
		"repro_engine_paths_total",
		"repro_engine_memo_hits_total",
		"repro_engine_memo_misses_total",
		"repro_worksteal_steals_total",
		"repro_checkpoint_writes_total",
		"repro_checkpoint_age_seconds",
		"repro_unit_ns",
	}
	for _, fam := range required {
		if !strings.Contains(body, "# TYPE "+fam+" ") {
			t.Fatalf("/metrics missing family %s:\n%s", fam, body)
		}
	}
	if !strings.Contains(body, "repro_jobs_completed_total 1") {
		t.Fatalf("/metrics did not count the completed job:\n%s", body)
	}
}

// TestExperimentsCached: the table endpoints serve the suite and the
// per-ID lookup agrees with the full listing.
func TestExperimentsCached(t *testing.T) {
	_, ts := newTestServer(t, "")
	var listing struct{ Experiments []struct{ ID, Text string } }
	if code := getJSON(t, ts.URL+"/api/v1/experiments", &listing); code != http.StatusOK {
		t.Fatalf("experiments: status %d", code)
	}
	if len(listing.Experiments) < 12 {
		t.Fatalf("only %d experiments served", len(listing.Experiments))
	}
	first := listing.Experiments[0]
	var single struct{ ID, Text string }
	if code := getJSON(t, ts.URL+"/api/v1/experiments/"+first.ID, &single); code != http.StatusOK {
		t.Fatalf("experiment %s: status %d", first.ID, code)
	}
	if single.ID != first.ID || single.Text != first.Text {
		t.Fatalf("single lookup disagrees with listing for %s", first.ID)
	}
	if !strings.HasPrefix(single.Text, "== "+single.ID) {
		t.Fatalf("text rendering wrong: %q", single.Text)
	}
}
