package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/jobspec"
	"repro/internal/search"
)

// The two engine jobs, as a client submits them to the job server. Every
// job is deterministic: the same spec always yields the same result and
// the same counters, which the checks below pin.
const (
	worstcaseSpec = `{"kind":"worstcase","alg":"queue","model":"cc","waiters":3,"polls":4,"depth":24,"workers":1}`
	exploreSpec   = `{"kind":"explore","alg":"fixed-waiters","waiters":4,"polls":2,"depth":14,"reduce":true,"faults":2,"workers":1}`
)

// goldenPath is the committed rendering of the experiment suite, relative
// to the repository root, where the benchmark runs. It is read at run
// time, never copied.
const goldenPath = "internal/core/testdata/experiments.golden"

// decodeSpec decodes a job body the way the job server does.
func decodeSpec(body string) (*jobspec.Spec, error) {
	var s jobspec.Spec
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("decode spec: %w", err)
	}
	return &s, nil
}

func compileSearch(body string) (search.Config, error) {
	s, err := decodeSpec(body)
	if err != nil {
		return search.Config{}, err
	}
	return s.SearchConfig()
}

func compileExplore(body string) (explore.Config, error) {
	s, err := decodeSpec(body)
	if err != nil {
		return explore.Config{}, err
	}
	return s.ExploreConfig()
}

// checkWorstcaseResult pins the worstcase-cc result: worst cost 20 and
// the memo DAG's path, prune and truncation counts.
func checkWorstcaseResult(res *search.Result) error {
	got := [4]int{res.WorstCost, res.Paths, res.Pruned, res.Truncated}
	want := [4]int{20, 43416, 111060, 43350}
	if got != want {
		return fmt.Errorf("worstcase: (cost, paths, pruned, truncated) = %v, want %v", got, want)
	}
	return nil
}

// checkWorstcase also requires the witness to reprice to the same cost
// on the independent replay path.
func checkWorstcase(res *search.Result, rep *search.ReplayResult) error {
	if err := checkWorstcaseResult(res); err != nil {
		return err
	}
	if rep.Cost.Total != res.WorstCost {
		return fmt.Errorf("worstcase: witness replays to %d RMRs, search reported %d", rep.Cost.Total, res.WorstCost)
	}
	return nil
}

// runWorstcase is one worstcase-cc job: the search, then a replay of its
// witness, as the job server serves it.
func runWorstcase(cfg search.Config) error {
	res, err := search.Run(cfg)
	if err != nil {
		return err
	}
	rep, err := search.Replay(cfg, res.Witness)
	if err != nil {
		return err
	}
	return checkWorstcase(res, rep)
}

// checkExplore pins the explore-por-faults result. explore.Run returns an
// error on a Specification 4.1 violation, so reaching the check means
// the spec held on every schedule.
func checkExplore(res *explore.Result) error {
	got := [5]int{res.Paths, res.Truncated, res.StatesDeduped, res.StepsSlept, res.SymmetryMerges}
	want := [5]int{56521, 56519, 101504, 87994, 2856}
	if got != want {
		return fmt.Errorf("explore: (paths, truncated, deduped, slept, merges) = %v, want %v", got, want)
	}
	return nil
}

func runExplore(cfg explore.Config) error {
	res, err := explore.Run(cfg)
	if err != nil {
		return err
	}
	return checkExplore(res)
}

// experimentTables lists the suite of core.Experiments table by table,
// with the same parameters, so the traced run can time each table. The
// rendering of all thirteen must equal the golden file, which also
// catches a drift between this list and the suite.
var experimentTables = []struct {
	id  string
	run func() (*core.Table, error)
}{
	{"E1", func() (*core.Table, error) { return core.ExperimentE1([]int{4, 8, 16, 32, 64, 128, 256}) }},
	{"E2", func() (*core.Table, error) { return core.ExperimentE2([]int{4, 16, 64, 256}) }},
	{"E3", func() (*core.Table, error) { return core.ExperimentE3([]int{1, 2, 3, 4}) }},
	{"E3G", func() (*core.Table, error) { return core.ExperimentE3Growth(2, []int{16, 32, 64, 128, 256}) }},
	{"E4", func() (*core.Table, error) { return core.ExperimentE4(3) }},
	{"E5", func() (*core.Table, error) { return core.ExperimentE5([]int{4, 16, 64, 256}) }},
	{"E6", func() (*core.Table, error) { return core.ExperimentE6([]int{8, 16, 32, 64}) }},
	{"E7", func() (*core.Table, error) { return core.ExperimentE7([]int{2, 4, 8, 16, 32}) }},
	{"E8", func() (*core.Table, error) { return core.ExperimentE8([]int{4, 8, 16, 32}) }},
	{"E9", func() (*core.Table, error) { return core.ExperimentE9([]int{2, 4, 8, 16}) }},
	{"E10", func() (*core.Table, error) { return core.ExperimentE10([]int{2, 4, 8, 16}) }},
	{"E11", func() (*core.Table, error) { return core.ExperimentE11([]int{2, 4, 8, 16}) }},
	{"E12", core.ExperimentE12},
}

func readGolden() ([]byte, error) {
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("read experiments golden: %w", err)
	}
	return b, nil
}

// checkTables compares the suite's rendering byte for byte with the
// golden file.
func checkTables(tables []*core.Table, golden []byte) error {
	var b bytes.Buffer
	for _, t := range tables {
		b.WriteString(t.Text())
	}
	if !bytes.Equal(b.Bytes(), golden) {
		return fmt.Errorf("experiments: %d tables, %d bytes, differ from %s (%d bytes)",
			len(tables), b.Len(), goldenPath, len(golden))
	}
	return nil
}

func runExperiments(golden []byte) error {
	tables, err := core.Experiments()
	if err != nil {
		return err
	}
	return checkTables(tables, golden)
}

// workload is one closed-loop job stream. prepare is the set-up a client
// pays before its first job: decoding and compiling the spec, or reading
// the golden file; it returns the job, which runs once and checks its
// output.
type workload struct {
	name    string
	prepare func() (func() error, error)
}

var workloads = []workload{
	{"worstcase-cc", func() (func() error, error) {
		cfg, err := compileSearch(worstcaseSpec)
		if err != nil {
			return nil, err
		}
		return func() error { return runWorstcase(cfg) }, nil
	}},
	{"explore-por-faults", func() (func() error, error) {
		cfg, err := compileExplore(exploreSpec)
		if err != nil {
			return nil, err
		}
		return func() error { return runExplore(cfg) }, nil
	}},
	{"experiments", func() (func() error, error) {
		golden, err := readGolden()
		if err != nil {
			return nil, err
		}
		return func() error { return runExperiments(golden) }, nil
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
