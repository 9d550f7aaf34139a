package memsim_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/memsim"
)

// Differential tests of the planned state walk against the reflective
// walk: the two must induce the same partition over frame states — two
// frames encode equally under AppendFrameState if and only if they encode
// equally under the reflective AppendFrameStateReflect. The corpus
// exercises every plan path: all scalar widths, strings, scalar slices,
// nested structs, arrays, interfaces, exported sub-frames with custom
// encoders, unexported sub-frames (plain walk), non-frame pointers
// (nil-ness only) and opaque fields (maps).

// encSubFrame is a plain frame used as an unexported sub-frame: the plan
// walks it field by field, custom encoders not consulted.
type encSubFrame struct {
	A  int32
	B  []uint16
	pc uint8
}

func (f *encSubFrame) Next(memsim.Result) (memsim.Access, bool) { return memsim.Access{}, false }
func (f *encSubFrame) Return() memsim.Value                     { return 0 }

func (f *encSubFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

// encCustomFrame carries a StateAppender, honored when reached through an
// exported field or at top level.
type encCustomFrame struct {
	X      int
	Y      string
	hidden int // deliberately outside the custom encoding
}

func (f *encCustomFrame) Next(memsim.Result) (memsim.Access, bool) { return memsim.Access{}, false }
func (f *encCustomFrame) Return() memsim.Value                     { return 0 }

func (f *encCustomFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

func (f *encCustomFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.X))
	dst = binary.AppendUvarint(dst, uint64(len(f.Y)))
	return append(dst, f.Y...)
}

// encWalkFrame exercises the full planned walk.
type encWalkFrame struct {
	B      bool
	I8     int8
	I16    int16
	I32    int32
	I64    int64
	U8     uint8
	U16    uint16
	U32    uint32
	U64    uint64
	F32    float32
	F64    float64
	S      string
	Sl     []int64
	Nested struct{ P, Q int }
	Arr    [2]int32
	Iface  any
	Sub    *encCustomFrame // exported: custom encoder honored
	sub    *encSubFrame    // unexported: plain walk
	Ptr    *int            // non-frame pointer: nil-ness only
	M      map[int]int     // opaque
}

func (f *encWalkFrame) Next(memsim.Result) (memsim.Access, bool) { return memsim.Access{}, false }
func (f *encWalkFrame) Return() memsim.Value                     { return 0 }

func (f *encWalkFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

func reflectEncoding(r memsim.Resumable) string {
	return string(memsim.AppendFrameStateReflect(nil, r))
}

func plannedEncoding(r memsim.Resumable) string {
	return string(memsim.AppendFrameState(nil, r))
}

// checkPartition asserts the partition property over every pair of the
// corpus: reflective-equal ⇔ planned-equal.
func checkPartition(t *testing.T, frames []memsim.Resumable) {
	t.Helper()
	refls := make([]string, len(frames))
	plans := make([]string, len(frames))
	for i, f := range frames {
		refls[i] = reflectEncoding(f)
		plans[i] = plannedEncoding(f)
	}
	for i := range frames {
		for j := i + 1; j < len(frames); j++ {
			rEq, pEq := refls[i] == refls[j], plans[i] == plans[j]
			if rEq != pEq {
				t.Errorf("partition mismatch between corpus[%d] and corpus[%d]: reflective equal=%v, planned equal=%v\n reflective i: %q\n reflective j: %q",
					i, j, rEq, pEq, refls[i], refls[j])
			}
		}
	}
}

func walkCorpus() []memsim.Resumable {
	ptrTarget := 7
	base := func() *encWalkFrame {
		return &encWalkFrame{
			B: true, I8: -5, I16: 300, I32: -70000, I64: 1 << 40,
			U8: 200, U16: 40000, U32: 3_000_000_000, U64: 1 << 50,
			F32: 1.5, F64: -2.25, S: "state", Sl: []int64{1, -2, 3},
			Nested: struct{ P, Q int }{P: 9, Q: -9},
			Arr:    [2]int32{4, 5},
			Iface:  int64(11),
			Sub:    &encCustomFrame{X: 1, Y: "a", hidden: 99},
			sub:    &encSubFrame{A: 2, B: []uint16{6, 7}, pc: 3},
			Ptr:    &ptrTarget,
			M:      map[int]int{1: 2},
		}
	}
	var frames []memsim.Resumable
	frames = append(frames, base(), base()) // identical pair: must stay equal
	mutations := []func(f *encWalkFrame){
		func(f *encWalkFrame) { f.B = false },
		func(f *encWalkFrame) { f.I8 = 5 },
		func(f *encWalkFrame) { f.I16 = -300 },
		func(f *encWalkFrame) { f.I32 = 70000 },
		func(f *encWalkFrame) { f.I64 = 0 },
		func(f *encWalkFrame) { f.U8 = 0 },
		func(f *encWalkFrame) { f.U64 = 1 },
		func(f *encWalkFrame) { f.F32 = -1.5 },
		func(f *encWalkFrame) { f.F64 = 2.25 },
		func(f *encWalkFrame) { f.S = "stat" },
		func(f *encWalkFrame) { f.S = "state," }, // delimiter injection attempt
		func(f *encWalkFrame) { f.Sl = []int64{1, -2} },
		func(f *encWalkFrame) { f.Sl = nil },
		func(f *encWalkFrame) { f.Nested.Q = 9 },
		func(f *encWalkFrame) { f.Arr[1] = -5 },
		func(f *encWalkFrame) { f.Iface = int64(12) },
		func(f *encWalkFrame) { f.Iface = nil },
		func(f *encWalkFrame) { f.Sub.X = 2 },
		func(f *encWalkFrame) { f.Sub.Y = "b" },
		func(f *encWalkFrame) { f.Sub = nil },
		func(f *encWalkFrame) { f.sub.A = 3 },
		func(f *encWalkFrame) { f.sub.B = []uint16{6} },
		func(f *encWalkFrame) { f.sub.pc = 4 },
		func(f *encWalkFrame) { f.sub = nil },
		func(f *encWalkFrame) { f.Ptr = nil },
		// hidden is invisible to the custom encoder: both encodings must
		// treat this mutation as a no-op (equal to the base frame).
		func(f *encWalkFrame) { f.Sub.hidden = 100 },
	}
	for _, mut := range mutations {
		f := base()
		mut(f)
		frames = append(frames, f)
	}
	return frames
}

// TestEncoderPartitionWalkFrames: the synthetic corpus covering every
// plan path partitions identically under both walks.
func TestEncoderPartitionWalkFrames(t *testing.T) {
	checkPartition(t, walkCorpus())
}

// TestEncoderPartitionMixedTypes: frames of different types never encode
// equally under either walk (the type name is part of both renderings).
func TestEncoderPartitionMixedTypes(t *testing.T) {
	frames := []memsim.Resumable{
		&encSubFrame{A: 1},
		&encCustomFrame{X: 1},
		&encWalkFrame{},
		nil,
	}
	checkPartition(t, frames)
	for i, a := range frames {
		for j := i + 1; j < len(frames); j++ {
			if plannedEncoding(a) == plannedEncoding(frames[j]) {
				t.Errorf("frames of distinct types %d and %d encode equally", i, j)
			}
		}
	}
}

// TestEncoderDeterministic: encoding is a pure function of frame state —
// repeated encodings of the same frame are byte-identical (the property
// that lets one scratch buffer serve every node).
func TestEncoderDeterministic(t *testing.T) {
	for i, f := range walkCorpus() {
		a, b := plannedEncoding(f), plannedEncoding(f)
		if a != b {
			t.Fatalf("corpus[%d]: two encodings differ", i)
		}
	}
}

// FuzzEncoderPartition drives the partition property over fuzzed pairs of
// frame states: build two frames from the two halves of the input, then
// require reflective-equal ⇔ planned-equal. NaN floats are canonicalized
// away — the reflective walk widens float32 to float64, which can merge
// NaN payloads the planned walk's raw bits keep apart, and frames never
// hold NaN.
func FuzzEncoderPartition(f *testing.F) {
	f.Add(int64(1), uint64(2), "a", []byte{1, 2}, 1.5, true, int64(1), uint64(2), "a", []byte{1, 2}, 1.5, true)
	f.Add(int64(1), uint64(2), "a", []byte{1, 2}, 1.5, true, int64(2), uint64(2), "a", []byte{1, 2}, 1.5, true)
	f.Add(int64(0), uint64(0), "", []byte{}, 0.0, false, int64(0), uint64(0), "", []byte{}, 0.0, false)
	build := func(i int64, u uint64, s string, raw []byte, fl float64, withSub bool) *encWalkFrame {
		if math.IsNaN(fl) {
			fl = 0
		}
		sl := make([]int64, 0, len(raw))
		usl := make([]uint16, 0, len(raw))
		for _, b := range raw {
			sl = append(sl, int64(b))
			usl = append(usl, uint16(b))
		}
		fr := &encWalkFrame{
			B: i&1 == 0, I8: int8(i), I16: int16(i), I32: int32(i), I64: i,
			U8: uint8(u), U16: uint16(u), U32: uint32(u), U64: u,
			F32: float32(fl), F64: fl, S: s, Sl: sl,
			Nested: struct{ P, Q int }{P: int(i), Q: int(u)},
			Arr:    [2]int32{int32(u), int32(i)},
			Iface:  i,
		}
		if withSub {
			fr.Sub = &encCustomFrame{X: int(i), Y: s}
			fr.sub = &encSubFrame{A: int32(u), B: usl, pc: uint8(i)}
		}
		return fr
	}
	f.Fuzz(func(t *testing.T,
		i1 int64, u1 uint64, s1 string, r1 []byte, f1 float64, w1 bool,
		i2 int64, u2 uint64, s2 string, r2 []byte, f2 float64, w2 bool) {
		fa, fb := build(i1, u1, s1, r1, f1, w1), build(i2, u2, s2, r2, f2, w2)
		rEq := reflectEncoding(fa) == reflectEncoding(fb)
		pEq := plannedEncoding(fa) == plannedEncoding(fb)
		if rEq != pEq {
			t.Fatalf("partition mismatch: reflective equal=%v, planned equal=%v\n a: %q\n b: %q",
				rEq, pEq, reflectEncoding(fa), reflectEncoding(fb))
		}
	})
}

// TestHashKey128MatchesStdlib pins the inlined key hash to the stdlib
// FNV-128a digest: dedup and memo keys computed by memsim.HashKey128 must
// equal the ones the stateKeyLegacy oracles compute with fnv.New128a,
// byte for byte, or the differential partition suites would compare
// incompatible hash spaces.
func TestHashKey128MatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		b := make([]byte, rng.Intn(300))
		rng.Read(b)
		h := fnv.New128a()
		h.Write(b)
		var want [16]byte
		h.Sum(want[:0])
		if got := memsim.HashKey128(b); got != want {
			t.Fatalf("HashKey128 diverges from fnv.New128a on %d-byte input %x:\n got %x\nwant %x",
				len(b), b, got, want)
		}
	}
	if got, want := memsim.HashKey128(nil), memsim.HashKey128([]byte{}); got != want {
		t.Fatalf("nil and empty inputs hash differently: %x vs %x", got, want)
	}
}
