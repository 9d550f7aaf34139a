// Package checkpoint serializes search and exploration state to a
// versioned, length-prefixed on-disk format, making deep runs durable: a
// snapshot carries the unit list (the frontier of subtree prefixes the
// run is partitioned into), the committed-unit set, the accumulated
// counters, and the memo/dedup table entries those committed units
// produced — everything a resumed run needs to continue and finish with
// byte-identical results to an uninterrupted one.
//
// The format is a fixed header (magic "RPCK", a version number, a CRC-32
// and the body length, so truncation and corruption are rejected on
// read, and future versions are rejected with a clear error instead of a
// misparse) followed by one little-endian body. Write is atomic: the
// snapshot lands under a temporary name, is fsynced, and renames over
// the target, so a crash mid-write leaves the previous snapshot intact.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/errs"
)

// Kind names the subsystem a snapshot belongs to; resuming a search from
// an exploration snapshot (or vice versa) is rejected.
type Kind uint8

// The snapshot kinds.
const (
	KindSearch  Kind = 1
	KindExplore Kind = 2
)

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case KindSearch:
		return "search"
	case KindExplore:
		return "explore"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Counters are the deterministic result tallies accumulated by committed
// units. Search uses Pruned, exploration uses Deduped; the unused field
// stays zero. StepsSlept and SymmetryMerges count the partial-order and
// symmetry reductions of reduced runs (format version 3; zero when read
// from a version 2 snapshot, which only unreduced runs write).
type Counters struct {
	Paths           int `json:"paths"`
	Truncated       int `json:"truncated"`
	Pruned          int `json:"pruned"`
	Deduped         int `json:"deduped"`
	MaxDepthReached int `json:"maxDepthReached"`
	StepsSlept      int `json:"stepsSlept,omitempty"`
	SymmetryMerges  int `json:"symmetryMerges,omitempty"`
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Paths += o.Paths
	c.Truncated += o.Truncated
	c.Pruned += o.Pruned
	c.Deduped += o.Deduped
	c.StepsSlept += o.StepsSlept
	c.SymmetryMerges += o.SymmetryMerges
	if o.MaxDepthReached > c.MaxDepthReached {
		c.MaxDepthReached = o.MaxDepthReached
	}
}

// Entry is one table record: a claimed (canonical state, remaining
// budget) pair. Search entries additionally carry the subtree's exact
// answer (its maximal tail cost; the witness is rebuilt from costs by a
// descent, so no tail is stored) and the adoption bit of the prune
// accounting; exploration entries are bare claims.
type Entry struct {
	State   [16]byte `json:"state"`
	Budget  int      `json:"budget"`
	Cost    int      `json:"cost"`
	Adopted bool     `json:"adopted"`
}

// CounterSample is one persisted telemetry counter: a family name and
// its cumulative value at snapshot time. The checkpoint-local type keeps
// this package free of a telemetry dependency in the format itself;
// observe.go converts at the boundary.
type CounterSample struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is one durable point of a run.
type Snapshot struct {
	// Kind is the owning subsystem.
	Kind Kind
	// Fingerprint identifies the configuration (algorithm, scripts,
	// depth, model, sharding regime). Resume rejects a mismatch: a
	// snapshot is only meaningful against the exact run that wrote it.
	Fingerprint string
	// ShardDepth is the unit prefix depth the run was partitioned at.
	ShardDepth int
	// Units are the subtree prefixes (work-stealing frontier handles)
	// the run processes, in the deterministic enumeration order.
	Units [][]int
	// Done holds the indices into Units of committed units, in commit
	// order. Units not listed must be (re)processed on resume.
	Done []uint32
	// Counters are the tallies accumulated by the committed units (plus,
	// for explorations, the shallow pass that enumerated the units).
	Counters Counters
	// Entries is the table state produced by the committed units.
	Entries []Entry
	// Telemetry carries the run's cumulative telemetry counters, sorted
	// by name (format version 4; empty when read from older snapshots).
	// Unlike Counters these are observability-only: a resumed run
	// preloads them so rates and totals stay monotone across kills, but
	// nothing in the Result depends on them.
	Telemetry []CounterSample
}

// DoneSet returns Done as a set.
func (s *Snapshot) DoneSet() map[uint32]bool {
	m := make(map[uint32]bool, len(s.Done))
	for _, i := range s.Done {
		m[i] = true
	}
	return m
}

// SortEntries orders Entries canonically (by state bytes, then budget)
// so identical table contents serialize to identical bytes.
func (s *Snapshot) SortEntries() {
	sort.Slice(s.Entries, func(i, j int) bool {
		if c := bytes.Compare(s.Entries[i].State[:], s.Entries[j].State[:]); c != 0 {
			return c < 0
		}
		return s.Entries[i].Budget < s.Entries[j].Budget
	})
}

const (
	magic = "RPCK"
	// version 3: adds the StepsSlept and SymmetryMerges counters of the
	// reduced engines after the version 2 counter block. Version 2
	// snapshots (written by unreduced builds) remain readable — the new
	// counters decode as zero, which is exactly what an unreduced run
	// tallies, and the fingerprint pins the reduction regime so a v2
	// snapshot can never resume into a reduced run. Version 1 snapshots
	// hashed the legacy reflective text walk; the partitions are
	// equivalent but the hash *values* differ, so preloading a v1 table
	// would silently corrupt claim-once accounting — v1 files are
	// rejected with a distinct message instead of upgraded.
	// version 4: appends the telemetry counter block (a sorted
	// name/value list) after the Entries sequence. The block is pure
	// observability — resumption correctness never reads it — so
	// version 2 and 3 snapshots stay readable and simply decode an
	// empty block.
	// version 5: drops the per-entry witness tail (search rebuilds its
	// witness from entry costs). Versions 2-4 stay readable: each old
	// tail is skipped unread, and their costs and adoption bits mean
	// exactly what they do in version 5.
	version = 5
	// minReadVersion is the oldest format this build still decodes.
	minReadVersion = 2
	// headerSize is magic + u16 version + u32 crc + u64 body length.
	headerSize = 4 + 2 + 4 + 8
)

// Write atomically persists s to path: encode, write to a temporary file
// in the same directory, fsync, rename. The previous snapshot at path
// survives any crash before the rename commits.
func Write(path string, s *Snapshot) error {
	raw, err := marshal(s)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: commit %s: %w", path, err)
	}
	return nil
}

// marshal renders the bytes of a current-version snapshot file: the
// header, then the body.
func marshal(s *Snapshot) ([]byte, error) {
	var b bytes.Buffer
	b.Write(make([]byte, headerSize))
	if err := encodeBody(&b, s); err != nil {
		return nil, err
	}
	raw := b.Bytes()
	body := raw[headerSize:]
	copy(raw[:4], magic)
	binary.LittleEndian.PutUint16(raw[4:6], version)
	binary.LittleEndian.PutUint32(raw[6:10], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint64(raw[10:18], uint64(len(body)))
	return raw, nil
}

// Read loads and validates the snapshot at path. A missing file, a wrong
// magic, an unsupported version, a truncated body, a CRC mismatch and an
// undecodable body are all distinct Failures.
func Read(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, errs.Failuref(errs.CodeNotFound, "checkpoint: no snapshot at %s", path)
		}
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return parse(path, raw)
}

// parse validates and decodes the bytes of a snapshot file; path only
// names it in failures.
func parse(path string, raw []byte) (*Snapshot, error) {
	if len(raw) < headerSize || string(raw[:4]) != magic {
		return nil, errs.Failuref(errs.CodeInvalid, "checkpoint: %s is not a snapshot (bad magic)", path)
	}
	v := binary.LittleEndian.Uint16(raw[4:6])
	switch {
	case v >= minReadVersion && v <= version:
	case v == 1:
		return nil, errs.Failuref(errs.CodeInvalid,
			"checkpoint: %s is a format version 1 snapshot, written before the state-encoding change; "+
				"its state hashes are incompatible with this build (version %d) — delete it and rerun from scratch",
			path, version)
	default:
		return nil, errs.Failuref(errs.CodeInvalid,
			"checkpoint: %s is format version %d, this build reads versions %d-%d", path, v, minReadVersion, version)
	}
	wantCRC := binary.LittleEndian.Uint32(raw[6:10])
	bodyLen := binary.LittleEndian.Uint64(raw[10:18])
	body := raw[headerSize:]
	if uint64(len(body)) != bodyLen {
		return nil, errs.Failuref(errs.CodeInvalid,
			"checkpoint: %s truncated: body is %d bytes, header promises %d", path, len(body), bodyLen)
	}
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, errs.Failuref(errs.CodeInvalid, "checkpoint: %s corrupt: CRC mismatch", path)
	}
	s, err := decodeBody(bytes.NewReader(body), v)
	if err != nil {
		return nil, errs.Failuref(errs.CodeInvalid, "checkpoint: %s undecodable: %v", path, err)
	}
	return s, nil
}

// The body encoding: every integer little-endian, every sequence length-
// prefixed with a u32 count. Field order is fixed by these two
// functions; any change bumps the format version.

func encodeBody(b *bytes.Buffer, s *Snapshot) error {
	b.WriteByte(byte(s.Kind))
	if err := putString(b, s.Fingerprint); err != nil {
		return err
	}
	putI64(b, int64(s.ShardDepth))
	putU32(b, uint32(len(s.Units)))
	for _, u := range s.Units {
		if err := putIntSlice(b, u); err != nil {
			return err
		}
	}
	putU32(b, uint32(len(s.Done)))
	for _, d := range s.Done {
		putU32(b, d)
	}
	putI64(b, int64(s.Counters.Paths))
	putI64(b, int64(s.Counters.Truncated))
	putI64(b, int64(s.Counters.Pruned))
	putI64(b, int64(s.Counters.Deduped))
	putI64(b, int64(s.Counters.MaxDepthReached))
	putI64(b, int64(s.Counters.StepsSlept))
	putI64(b, int64(s.Counters.SymmetryMerges))
	putU32(b, uint32(len(s.Entries)))
	for _, e := range s.Entries {
		b.Write(e.State[:])
		putI64(b, int64(e.Budget))
		putI64(b, int64(e.Cost))
		if e.Adopted {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
	}
	putU32(b, uint32(len(s.Telemetry)))
	for _, c := range s.Telemetry {
		if err := putString(b, c.Name); err != nil {
			return err
		}
		putI64(b, c.Value)
	}
	return nil
}

func decodeBody(r *bytes.Reader, v uint16) (*Snapshot, error) {
	s := &Snapshot{}
	kind, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	s.Kind = Kind(kind)
	if s.Fingerprint, err = getString(r); err != nil {
		return nil, err
	}
	sd, err := getI64(r)
	if err != nil {
		return nil, err
	}
	s.ShardDepth = int(sd)
	nUnits, err := getCount(r, 4)
	if err != nil {
		return nil, err
	}
	s.Units = make([][]int, nUnits)
	for i := range s.Units {
		if s.Units[i], err = getIntSlice(r); err != nil {
			return nil, err
		}
	}
	nDone, err := getCount(r, 4)
	if err != nil {
		return nil, err
	}
	s.Done = make([]uint32, nDone)
	for i := range s.Done {
		if s.Done[i], err = getU32(r); err != nil {
			return nil, err
		}
	}
	fields := []*int{
		&s.Counters.Paths, &s.Counters.Truncated, &s.Counters.Pruned,
		&s.Counters.Deduped, &s.Counters.MaxDepthReached,
	}
	if v >= 3 {
		fields = append(fields, &s.Counters.StepsSlept, &s.Counters.SymmetryMerges)
	}
	for _, dst := range fields {
		c, err := getI64(r)
		if err != nil {
			return nil, err
		}
		*dst = int(c)
	}
	// An entry is state, budget, cost and the adoption byte; versions
	// before 5 add at least a tail's u32 count.
	entrySize := 16 + 8 + 8 + 1
	if v < 5 {
		entrySize += 4
	}
	nEntries, err := getCount(r, entrySize)
	if err != nil {
		return nil, err
	}
	s.Entries = make([]Entry, nEntries)
	for i := range s.Entries {
		e := &s.Entries[i]
		if _, err := io.ReadFull(r, e.State[:]); err != nil {
			return nil, err
		}
		bu, err := getI64(r)
		if err != nil {
			return nil, err
		}
		e.Budget = int(bu)
		co, err := getI64(r)
		if err != nil {
			return nil, err
		}
		e.Cost = int(co)
		if v < 5 {
			if err := skipIntSlice(r); err != nil {
				return nil, err
			}
		}
		ad, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		e.Adopted = ad != 0
	}
	if v >= 4 {
		nTel, err := getCount(r, 4+8)
		if err != nil {
			return nil, err
		}
		if nTel > 0 {
			s.Telemetry = make([]CounterSample, nTel)
			for i := range s.Telemetry {
				if s.Telemetry[i].Name, err = getString(r); err != nil {
					return nil, err
				}
				if s.Telemetry[i].Value, err = getI64(r); err != nil {
					return nil, err
				}
			}
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", r.Len())
	}
	return s, nil
}

func putU32(b *bytes.Buffer, v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	b.Write(buf[:])
}

func putI64(b *bytes.Buffer, v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	b.Write(buf[:])
}

func putString(b *bytes.Buffer, s string) error {
	if len(s) > math.MaxUint32 {
		return fmt.Errorf("checkpoint: string too long")
	}
	putU32(b, uint32(len(s)))
	b.WriteString(s)
	return nil
}

// putIntSlice encodes choice-index sequences; every element fits i32 (a
// choice set never exceeds the process count).
func putIntSlice(b *bytes.Buffer, v []int) error {
	if len(v) > math.MaxUint32 {
		return fmt.Errorf("checkpoint: slice too long")
	}
	putU32(b, uint32(len(v)))
	for _, x := range v {
		if x > math.MaxInt32 || x < math.MinInt32 {
			return fmt.Errorf("checkpoint: index %d overflows i32", x)
		}
		putU32(b, uint32(int32(x)))
	}
	return nil
}

func getU32(r *bytes.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

func getI64(r *bytes.Reader) (int64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(buf[:])), nil
}

func getString(r *bytes.Reader) (string, error) {
	n, err := getU32(r)
	if err != nil {
		return "", err
	}
	if uint64(n) > uint64(r.Len()) {
		return "", fmt.Errorf("string length %d exceeds remaining %d", n, r.Len())
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// getCount reads a sequence count whose elements each encode to at least
// minSize bytes, rejecting one the remaining body cannot hold — so a
// crafted count can never size an allocation beyond the body itself.
func getCount(r *bytes.Reader, minSize int) (int, error) {
	n, err := getU32(r)
	if err != nil {
		return 0, err
	}
	if uint64(n)*uint64(minSize) > uint64(r.Len()) {
		return 0, fmt.Errorf("count %d of %d-byte elements exceeds remaining %d bytes", n, minSize, r.Len())
	}
	return int(n), nil
}

func getIntSlice(r *bytes.Reader) ([]int, error) {
	n, err := getCount(r, 4)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]int, n)
	for i := range out {
		v, err := getU32(r)
		if err != nil {
			return nil, err
		}
		out[i] = int(int32(v))
	}
	return out, nil
}

// skipIntSlice steps over an encoded int slice without decoding it: the
// witness tail of a pre-version-5 entry.
func skipIntSlice(r *bytes.Reader) error {
	n, err := getCount(r, 4)
	if err != nil {
		return err
	}
	_, err = r.Seek(int64(n)*4, io.SeekCurrent)
	return err
}
