package checkpoint

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
)

// encodeBodyV3 reproduces the format version 3 body byte-for-byte: the
// version 4 layout minus the trailing telemetry counter block. Kept in
// the test (like encodeBodyV2) so the production encoder stays
// single-versioned.
func encodeBodyV3(s *Snapshot) []byte {
	var b bytes.Buffer
	b.WriteByte(byte(s.Kind))
	putString(&b, s.Fingerprint)
	putI64(&b, int64(s.ShardDepth))
	putU32(&b, uint32(len(s.Units)))
	for _, u := range s.Units {
		putIntSlice(&b, u)
	}
	putU32(&b, uint32(len(s.Done)))
	for _, d := range s.Done {
		putU32(&b, d)
	}
	putI64(&b, int64(s.Counters.Paths))
	putI64(&b, int64(s.Counters.Truncated))
	putI64(&b, int64(s.Counters.Pruned))
	putI64(&b, int64(s.Counters.Deduped))
	putI64(&b, int64(s.Counters.MaxDepthReached))
	putI64(&b, int64(s.Counters.StepsSlept))
	putI64(&b, int64(s.Counters.SymmetryMerges))
	putU32(&b, uint32(len(s.Entries)))
	for i, e := range s.Entries {
		b.Write(e.State[:])
		putI64(&b, int64(e.Budget))
		putI64(&b, int64(e.Cost))
		putIntSlice(&b, oldTail(i))
		if e.Adopted {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
	}
	return b.Bytes()
}

// TestVersion4RoundTripsTelemetryBlock: the version 4 format written by
// Write carries the telemetry counter block through exactly, names,
// values and order.
func TestVersion4RoundTripsTelemetryBlock(t *testing.T) {
	want := compatSnapshot()
	want.Telemetry = []CounterSample{
		{Name: "repro_engine_nodes_total", Value: 48213},
		{Name: "repro_engine_paths_total", Value: 120},
		{Name: "repro_worksteal_steals_total", Value: 0},
	}
	path := filepath.Join(t.TempDir(), "v4.rpck")
	if err := Write(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v4 round-trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestReadVersion3Snapshot: a pre-telemetry snapshot still reads
// exactly, with an empty telemetry block — the compatibility gate for
// the format bump that added the counter block.
func TestReadVersion3Snapshot(t *testing.T) {
	want := compatSnapshot()
	want.Counters.StepsSlept = 17
	want.Counters.SymmetryMerges = 5
	path := filepath.Join(t.TempDir(), "v3.rpck")
	writeRaw(t, path, 3, encodeBodyV3(want))
	got, err := Read(path)
	if err != nil {
		t.Fatalf("reading a version 3 snapshot: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v3 round-trip diverged:\n got %+v\nwant %+v", got, want)
	}
	if got.Telemetry != nil {
		t.Fatalf("v3 snapshot decoded a telemetry block: %+v", got.Telemetry)
	}
}

// TestVersion3BodyUnderVersion4Header: declaring version 4 obliges the
// body to carry the telemetry block; a short (v3) body must be
// rejected, not misparsed.
func TestVersion3BodyUnderVersion4Header(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.rpck")
	writeRaw(t, path, 4, encodeBodyV3(compatSnapshot()))
	if _, err := Read(path); err == nil {
		t.Fatal("version 4 header over a version 3 body was accepted")
	}
}
