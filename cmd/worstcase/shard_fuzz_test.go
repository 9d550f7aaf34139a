package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/jobspec"
)

// FuzzShardProtocol feeds arbitrary bytes to the shard worker loop on a
// tiny job. Nothing may panic, and every request line gets exactly one
// reply line holding either a result or an error; a result answers the
// prefix that was asked for.
func FuzzShardProtocol(f *testing.F) {
	spec := jobspec.Spec{Kind: jobspec.KindWorstcase, Alg: "flag", Waiters: 1, Polls: 1, Depth: 6, Faults: 1}
	cfg, err := spec.SearchConfig()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		"{\"prefix\":[0,0]}\n{\"prefix\":[1,0,0]}\n",
		"{\"prefix\":[]}\nnull\n",
		"{\"prefix\":[0,0,0,0,0,0,0]}\n",
		"{\"prefix\":[-1]}\n{\"prefix\":[9223372036854775807]}\n",
		"{\"prefix\":[0]}{\"prefix\":[0]}\n\n",
		"{\"prefix\":\"0\"}\r\n{\"prefix\":[1e3]}",
		"not json\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 || bytes.Count(data, []byte("\n")) > 16 {
			return // each request may cost a unit search; keep runs short
		}
		var out bytes.Buffer
		if err := serveShardUnits(cfg, bytes.NewReader(data), &out); err != nil {
			t.Fatalf("worker loop failed on %q: %v", data, err)
		}
		requests := strings.Split(string(data), "\n")
		if requests[len(requests)-1] == "" {
			requests = requests[:len(requests)-1]
		}
		replies := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
		if out.Len() == 0 {
			replies = nil
		}
		if len(replies) != len(requests) {
			t.Fatalf("%d request lines got %d replies:\n%s", len(requests), len(replies), out.String())
		}
		for i, line := range replies {
			var rep unitReply
			if err := json.Unmarshal([]byte(line), &rep); err != nil {
				t.Fatalf("reply %d is not a reply: %v\n%s", i, err, line)
			}
			if (rep.Result == nil) == (rep.Error == "") {
				t.Fatalf("reply %d holds %s, want exactly one of a result and an error", i, line)
			}
			var req unitRequest
			if rep.Result != nil {
				if err := json.Unmarshal([]byte(strings.TrimSuffix(requests[i], "\r")), &req); err != nil {
					t.Fatalf("reply %d answers a request that does not parse: %s", i, line)
				}
				if !slices.Equal(rep.Result.Prefix, req.Prefix) && len(req.Prefix)+len(rep.Result.Prefix) > 0 {
					t.Fatalf("reply %d answers %v, asked %v", i, rep.Result.Prefix, req.Prefix)
				}
			}
		}
	})
}
