package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// encodeBodyV2 reproduces the format version 2 body byte-for-byte: the
// version 3 layout minus the StepsSlept and SymmetryMerges counter
// fields. Kept in the test (not the package) so the production encoder
// stays single-versioned; if the field order of encodeBody drifts, the
// round-trip below fails rather than silently diverging.
func encodeBodyV2(s *Snapshot) []byte {
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

// writeRaw persists a body under an arbitrary header version, bypassing
// Write's pinning to the current version.
func writeRaw(t *testing.T, path string, v uint16, body []byte) {
	t.Helper()
	if err := os.WriteFile(path, frame(v, body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// frame prefixes a body with a valid header under version v.
func frame(v uint16, body []byte) []byte {
	var hdr [headerSize]byte
	copy(hdr[:4], magic)
	binary.LittleEndian.PutUint16(hdr[4:6], v)
	binary.LittleEndian.PutUint32(hdr[6:10], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint64(hdr[10:18], uint64(len(body)))
	return append(hdr[:], body...)
}

// compatTails are the witness tails a pre-version-5 build stored with
// compatSnapshot's entries, one per entry. Entry has no tail field any
// more, so the old-version encoders take them from here.
var compatTails = [][]int{{1, 0, 2}, nil}

// oldTail is the tail the old-version encoders write for entry i.
func oldTail(i int) []int {
	if i < len(compatTails) {
		return compatTails[i]
	}
	return nil
}

// compatSnapshot is a representative unreduced snapshot: exactly what a
// version 2 build would have written (reduction counters zero — only
// version 3 builds tally them, and their fingerprints carry "|reduce").
func compatSnapshot() *Snapshot {
	return &Snapshot{
		Kind:        KindSearch,
		Fingerprint: "search|flag|n=4|d=14|model=DSM",
		ShardDepth:  3,
		Units:       [][]int{{0, 0, 0}, {0, 1}, {2, 0, 1}},
		Done:        []uint32{1, 0},
		Counters: Counters{
			Paths: 120, Truncated: 7, Pruned: 33, MaxDepthReached: 14,
		},
		Entries: []Entry{
			{State: [16]byte{1, 2, 3}, Budget: 5, Cost: 4, Adopted: true},
			{State: [16]byte{9}, Budget: 2, Cost: 0},
		},
	}
}

// TestReadVersion2Snapshot: a pre-reduction snapshot still reads
// exactly, with the version 3 counters decoding as the zeros an
// unreduced run tallies. This is the compatibility gate for the format
// bump that added StepsSlept/SymmetryMerges.
func TestReadVersion2Snapshot(t *testing.T) {
	want := compatSnapshot()
	path := filepath.Join(t.TempDir(), "v2.rpck")
	writeRaw(t, path, 2, encodeBodyV2(want))
	got, err := Read(path)
	if err != nil {
		t.Fatalf("reading a version 2 snapshot: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v2 round-trip diverged:\n got %+v\nwant %+v", got, want)
	}
	if got.Counters.StepsSlept != 0 || got.Counters.SymmetryMerges != 0 {
		t.Fatalf("v2 snapshot decoded nonzero reduction counters: %+v", got.Counters)
	}
}

// TestCurrentVersionRoundTripsReductionCounters: the version 3 format
// written by Write carries the reduction counters through exactly.
func TestCurrentVersionRoundTripsReductionCounters(t *testing.T) {
	want := compatSnapshot()
	want.Fingerprint += "|reduce"
	want.Counters.StepsSlept = 4096
	want.Counters.SymmetryMerges = 811
	path := filepath.Join(t.TempDir(), "v3.rpck")
	if err := Write(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v3 round-trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestVersion2BodyUnderVersion3Header: declaring version 3 obliges the
// body to carry the new counter fields; a short (v2) body must be
// rejected, not misparsed.
func TestVersion2BodyUnderVersion3Header(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.rpck")
	writeRaw(t, path, 3, encodeBodyV2(compatSnapshot()))
	if _, err := Read(path); err == nil {
		t.Fatal("version 3 header over a version 2 body was accepted")
	}
}
