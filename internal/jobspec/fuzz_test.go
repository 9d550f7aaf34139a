package jobspec_test

import (
	"encoding/json"
	"testing"

	"repro/internal/errs"
	"repro/internal/jobspec"
)

// FuzzSpec feeds arbitrary JSON through the job server's compile path:
// decode, Normalize, then ExploreConfig and SearchConfig. Nothing may
// panic, every rejection is an errs.Failure with CodeInvalid, and a
// normalized spec compiles to exactly the config of its kind.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"explore","alg":"queue","waiters":3,"polls":2,"depth":12}`,
		`{"kind":"explore","alg":"flag","dedup":false}`,
		`{"kind":"explore","reduce":true,"dedup":false}`,
		`{"kind":"explore","alg":"cas-register-rw","faults":1,"faultKinds":"crash"}`,
		`{"kind":"worstcase","alg":"flag","mode":"sample","walks":64,"seed":7}`,
		`{"kind":"worstcase","model":"cc-wb","reduce":true,"faults":2,"faultKinds":"crash","faultVol":"owned"}`,
		`{"kind":"worstcase","alg":"leader-blocking"}`,
		`{"kind":"explore","waiters":9223372036854775807,"polls":9223372036854775807}`,
		`{"kind":"worstcase","mode":"walk","model":"tso"}`,
		`{"kind":"nope"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s jobspec.Spec
		if json.Unmarshal(data, &s) != nil {
			return // not a spec at all: the JSON decoder rejects it
		}
		invalid := func(step string, err error) bool {
			if err != nil && (!errs.IsFailure(err) || errs.CodeOf(err) != errs.CodeInvalid) {
				t.Fatalf("%s rejected %s with %v, want an invalid-input Failure", step, data, err)
			}
			return err != nil
		}
		if invalid("Normalize", s.Normalize()) {
			return
		}
		_, eerr := s.ExploreConfig()
		_, serr := s.SearchConfig()
		invalid("ExploreConfig", eerr)
		invalid("SearchConfig", serr)
		if (eerr == nil) == (serr == nil) {
			t.Fatalf("%s spec %s: explore err %v, search err %v; want exactly its own kind to compile",
				s.Kind, data, eerr, serr)
		}
	})
}
