package checkpoint

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/errs"
)

// encodeBodyV4 reproduces the format version 4 body byte-for-byte: the
// version 3 layout (entries with their witness tails) plus the trailing
// telemetry counter block.
func encodeBodyV4(s *Snapshot) []byte {
	b := bytes.NewBuffer(encodeBodyV3(s))
	putU32(b, uint32(len(s.Telemetry)))
	for _, c := range s.Telemetry {
		putString(b, c.Name)
		putI64(b, c.Value)
	}
	return b.Bytes()
}

// TestReadVersion4Snapshot: a snapshot whose entries still carry witness
// tails reads exactly, tails skipped — the compatibility gate for the
// format bump that dropped them. Costs and adoption bits keep their
// meaning, so nothing else in the snapshot changes.
func TestReadVersion4Snapshot(t *testing.T) {
	want := compatSnapshot()
	want.Telemetry = []CounterSample{{Name: "repro_engine_nodes_total", Value: 48213}}
	path := filepath.Join(t.TempDir(), "v4.rpck")
	writeRaw(t, path, 4, encodeBodyV4(want))
	got, err := Read(path)
	if err != nil {
		t.Fatalf("reading a version 4 snapshot: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v4 round-trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestCraftedCountsRejected: a sequence count larger than the rest of
// the body could hold is an invalid-input Failure, decided before the
// count sizes any allocation. Before the bound, a u32 count of
// 0xFFFFFFFF in a body of a few dozen bytes asked the runtime for tens
// of gigabytes and killed the process, which no recover can catch.
func TestCraftedCountsRejected(t *testing.T) {
	huge := func(b *bytes.Buffer) { putU32(b, 0xFFFFFFFF) }
	zero := func(b *bytes.Buffer) { putU32(b, 0) }
	// head writes the body up to and including the unit count.
	head := func(b *bytes.Buffer, units func(*bytes.Buffer)) {
		b.WriteByte(byte(KindSearch))
		putString(b, "")
		putI64(b, 3)
		units(b)
	}
	counters := func(b *bytes.Buffer) {
		for i := 0; i < 7; i++ {
			putI64(b, 0)
		}
	}
	cases := map[string]func(*bytes.Buffer){
		"units": func(b *bytes.Buffer) { head(b, huge) },
		"done":  func(b *bytes.Buffer) { head(b, zero); huge(b) },
		"entries": func(b *bytes.Buffer) {
			head(b, zero)
			zero(b)
			counters(b)
			huge(b)
		},
		"telemetry": func(b *bytes.Buffer) {
			head(b, zero)
			zero(b)
			counters(b)
			zero(b)
			huge(b)
		},
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			var b bytes.Buffer
			body(&b)
			_, err := parse(name, frame(version, b.Bytes()))
			if err == nil {
				t.Fatal("crafted count accepted")
			}
			if !errs.IsFailure(err) || errs.CodeOf(err) != errs.CodeInvalid {
				t.Fatalf("crafted count: %v (class %v, code %q), want an %q Failure",
					err, errs.Classify(err), errs.CodeOf(err), errs.CodeInvalid)
			}
		})
	}
}

// FuzzRead: decoding a body under any header version never panics, and
// every snapshot it accepts re-encodes as the current version and reads
// back identical. The fuzzer supplies the version and the body and the
// target frames them with a valid CRC, so mutations reach the decoder
// instead of dying at the checksum (header checks have their own tests).
// Seeded with version 2 to 5 bodies of a representative snapshot.
func FuzzRead(f *testing.F) {
	s := compatSnapshot()
	f.Add(uint16(2), encodeBodyV2(s))
	s.Counters.StepsSlept, s.Counters.SymmetryMerges = 17, 5
	f.Add(uint16(3), encodeBodyV3(s))
	s.Telemetry = []CounterSample{{Name: "repro_engine_paths_total", Value: 120}}
	f.Add(uint16(4), encodeBodyV4(s))
	raw, err := marshal(s)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint16(version), raw[headerSize:])
	f.Fuzz(func(t *testing.T, v uint16, body []byte) {
		s, err := parse("fuzz", frame(v, body))
		if err != nil {
			if !errs.IsFailure(err) {
				t.Fatalf("rejection is %v, want a Failure: %v", errs.Classify(err), err)
			}
			return
		}
		again, err := marshal(s)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		back, err := parse("fuzz", again)
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("re-encoding diverged:\n got %+v\nwant %+v", back, s)
		}
	})
}
