package checkpoint_test

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/errs"
)

func sample() *checkpoint.Snapshot {
	s := &checkpoint.Snapshot{
		Kind:        checkpoint.KindSearch,
		Fingerprint: "worstcase|alg=flag|n=4|depth=8|model=dsm",
		ShardDepth:  3,
		Units:       [][]int{{0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {2, 1, 3}},
		Done:        []uint32{1, 3, 0},
		Counters: checkpoint.Counters{
			Paths: 120, Truncated: 7, Pruned: 451, Deduped: 0, MaxDepthReached: 8,
		},
		Entries: []checkpoint.Entry{
			{State: [16]byte{1, 2, 3}, Budget: 5, Cost: 9, Adopted: true},
			{State: [16]byte{1, 2, 3}, Budget: 7, Cost: 2, Adopted: false},
			{State: [16]byte{0xff}, Budget: 0, Cost: 0, Adopted: false},
		},
	}
	return s
}

// TestRoundTrip: write→read reproduces every field, including the
// adoption bits the prune accounting depends on.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.rpck")
	want := sample()
	if err := checkpoint.Write(path, want); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := checkpoint.Read(path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestWriteDeterministic: the same snapshot serializes to identical
// bytes — the property the byte-identical-resume guarantee rests on.
func TestWriteDeterministic(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := checkpoint.Write(a, sample()); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Write(b, sample()); err != nil {
		t.Fatal(err)
	}
	ba, _ := os.ReadFile(a)
	bb, _ := os.ReadFile(b)
	if string(ba) != string(bb) {
		t.Fatal("two writes of the same snapshot differ")
	}
}

// TestVersionMismatch: a snapshot from a future format version is
// rejected with a Failure naming both versions, not misparsed.
func TestVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.rpck")
	if err := checkpoint.Write(path, sample()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(raw[4:6], 99)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = checkpoint.Read(path)
	if err == nil {
		t.Fatal("version 99 snapshot accepted")
	}
	if !errs.IsFailure(err) {
		t.Fatalf("version mismatch is %v, want Failure", errs.Classify(err))
	}
}

// TestStaleV1Rejected: a version 1 snapshot — written before the binary
// state-encoding change, with text-walk state hashes — is rejected
// cleanly with a message explaining the incompatibility, never preloaded.
func TestStaleV1Rejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stale.rpck")
	if err := checkpoint.Write(path, sample()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(raw[4:6], 1)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = checkpoint.Read(path)
	if err == nil {
		t.Fatal("version 1 snapshot accepted")
	}
	if !errs.IsFailure(err) {
		t.Fatalf("v1 rejection is %v, want Failure", errs.Classify(err))
	}
	if !strings.Contains(err.Error(), "state-encoding change") {
		t.Fatalf("v1 rejection does not explain the incompatibility: %v", err)
	}
}

// TestTruncated: every proper prefix of a valid snapshot is rejected —
// a crash mid-write (if it ever escaped the atomic rename) can never be
// read as a shorter-but-valid snapshot.
func TestTruncated(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.rpck")
	if err := checkpoint.Write(full, sample()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.rpck")
	for n := 0; n < len(raw); n++ {
		if err := os.WriteFile(cut, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := checkpoint.Read(cut); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(raw))
		} else if !errs.IsFailure(err) {
			t.Fatalf("truncation to %d bytes: class %v, want Failure", n, errs.Classify(err))
		}
	}
}

// TestCorrupt: a bit flip in the body fails the CRC.
func TestCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.rpck")
	if err := checkpoint.Write(path, sample()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Read(path); err == nil {
		t.Fatal("corrupt body accepted")
	}
}

// TestMissing: reading a nonexistent path is a not_found Failure so the
// CLI can distinguish "no snapshot yet" from a broken one.
func TestMissing(t *testing.T) {
	_, err := checkpoint.Read(filepath.Join(t.TempDir(), "nope.rpck"))
	if err == nil {
		t.Fatal("missing file accepted")
	}
	if errs.CodeOf(err) != errs.CodeNotFound {
		t.Fatalf("missing file code %q, want %q", errs.CodeOf(err), errs.CodeNotFound)
	}
}

// TestAtomicOverwrite: Write replaces an existing snapshot and leaves no
// temp files behind.
func TestAtomicOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.rpck")
	first := sample()
	if err := checkpoint.Write(path, first); err != nil {
		t.Fatal(err)
	}
	second := sample()
	second.Done = append(second.Done, 2)
	second.Counters.Paths = 999
	if err := checkpoint.Write(path, second); err != nil {
		t.Fatal(err)
	}
	got, err := checkpoint.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters.Paths != 999 || len(got.Done) != 4 {
		t.Fatalf("overwrite not visible: %+v", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("stray files after writes: %v", ents)
	}
}

// TestSortEntries: canonical ordering is by state bytes then budget.
func TestSortEntries(t *testing.T) {
	s := &checkpoint.Snapshot{Entries: []checkpoint.Entry{
		{State: [16]byte{2}, Budget: 1},
		{State: [16]byte{1}, Budget: 9},
		{State: [16]byte{1}, Budget: 3},
	}}
	s.SortEntries()
	if s.Entries[0].State != [16]byte{1} || s.Entries[0].Budget != 3 ||
		s.Entries[1].Budget != 9 || s.Entries[2].State != [16]byte{2} {
		t.Fatalf("bad order: %+v", s.Entries)
	}
}
