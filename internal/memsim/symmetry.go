package memsim

import "bytes"

// PID symmetry declaration. A workload whose instance implements
// SymmetricInstance names blocks of interchangeable processes (e.g. the W
// identical waiters of a signaling instance) together with each member's
// private address row. Engines that canonicalize states under PID permutation
// use the declaration to sort symmetric per-process blocks into a canonical
// order before hashing, so dedup and memo tables merge PID-permuted states.
//
// The declaration is a claim about the *instance*: permuting the members of a
// block (together with their address rows) maps reachable states to reachable
// states and preserves the checked property. Engines additionally refine the
// declared members by script identity — only members running identical
// scripts are actually treated as interchangeable — and validate the address
// rows structurally (BuildSymmetry), so a sloppy declaration degrades to no
// reduction rather than to unsoundness.

// RoleBlock declares one block of interchangeable processes. Addrs, when
// non-nil, holds one row per member (Addrs[j] belongs to PIDs[j]); all rows
// must have equal length, and column k of every row must play the same role
// in the algorithm (member j's row is member j's private state, in a fixed
// per-column layout). A nil Addrs declares a block whose members own no
// per-member addresses (they interact through shared words only).
type RoleBlock struct {
	PIDs  []PID
	Addrs [][]Addr
}

// SymmetricInstance is implemented by instances that declare PID symmetry.
type SymmetricInstance interface {
	Instance
	Roles() []RoleBlock
}

// NormAppender is implemented by frames that can append their canonical state
// with address normalization: every Addr-valued component is passed through
// norm and the returned token is appended in its place (callers arrange that
// tokens and raw values cannot collide). A false return from norm means the
// frame references an address the caller cannot normalize; the implementation
// must stop and report false. Implementations must start with a tag byte
// unique among all NormAppender frames in their package, and must otherwise
// mirror their canonical encoding's discriminating power: two frames append
// equal bytes under the same norm iff they are the same state up to the
// renaming norm encodes.
type NormAppender interface {
	AppendStateNorm(dst []byte, norm func(Addr) (int64, bool)) ([]byte, bool)
}

// SymGroup is one validated, script-refined block of interchangeable
// processes. Members are in ascending PID order; Rows[j] is Members[j]'s
// private address row (all rows have length K; K may be 0).
type SymGroup struct {
	Members []PID
	Rows    [][]Addr
	K       int
}

// Symmetry is the validated symmetry structure of one configured instance:
// the usable groups plus constant-time lookups from PIDs and addresses into
// them. Built once per engine; nil means no usable symmetry.
type Symmetry struct {
	groups []SymGroup
	// memberOf[p]: p's group, or -1.
	memberOf []int32
	// roleOf[a] / roleMem[a] / roleCol[a]: the group, member index and row
	// column owning address a, or -1 when a is not a role address.
	roleOf  []int32
	roleMem []int32
	roleCol []int32
}

// BuildSymmetry validates inst's symmetry declaration against machine m and
// the engine's script assignment, returning nil when no usable symmetry
// remains. scripted reports whether a PID runs a script; sameScript reports
// whether two scripted PIDs run identical scripts. Declared members are
// refined into script-identical groups, groups with fewer than two members
// are dropped, and the whole declaration is rejected (nil) when rows are
// ragged, addresses repeat, fall out of range, or a row column's owner
// pattern is not uniform (all self-owned, all owned by one fixed process, or
// all unowned) — the structural prerequisites for renaming members together
// with their rows.
func BuildSymmetry(m *Machine, inst Instance, n int, scripted func(PID) bool, sameScript func(a, b PID) bool) *Symmetry {
	si, ok := inst.(SymmetricInstance)
	if !ok {
		return nil
	}
	sym := &Symmetry{
		memberOf: make([]int32, n),
		roleOf:   make([]int32, m.Size()),
		roleMem:  make([]int32, m.Size()),
		roleCol:  make([]int32, m.Size()),
	}
	for i := range sym.memberOf {
		sym.memberOf[i] = -1
	}
	for i := range sym.roleOf {
		sym.roleOf[i], sym.roleMem[i], sym.roleCol[i] = -1, -1, -1
	}
	for _, role := range si.Roles() {
		if role.Addrs != nil && len(role.Addrs) != len(role.PIDs) {
			return nil
		}
		// Partition the scripted declared members into script-identical
		// groups, preserving declaration (and therefore PID) order.
		type cand struct {
			pid PID
			row []Addr
		}
		var parts [][]cand
		for j, p := range role.PIDs {
			if int(p) < 0 || int(p) >= n || !scripted(p) {
				continue
			}
			var row []Addr
			if role.Addrs != nil {
				row = role.Addrs[j]
			}
			placed := false
			for pi := range parts {
				if sameScript(parts[pi][0].pid, p) {
					parts[pi] = append(parts[pi], cand{p, row})
					placed = true
					break
				}
			}
			if !placed {
				parts = append(parts, []cand{{p, row}})
			}
		}
		for _, part := range parts {
			if len(part) < 2 {
				continue
			}
			g := SymGroup{K: len(part[0].row)}
			gi := int32(len(sym.groups))
			for mi, c := range part {
				if len(c.row) != g.K {
					return nil
				}
				if sym.memberOf[c.pid] >= 0 {
					return nil
				}
				sym.memberOf[c.pid] = gi
				for k, a := range c.row {
					if int(a) < 0 || int(a) >= m.Size() || sym.roleOf[a] >= 0 {
						return nil
					}
					sym.roleOf[a] = gi
					sym.roleMem[a] = int32(mi)
					sym.roleCol[a] = int32(k)
				}
				g.Members = append(g.Members, c.pid)
				g.Rows = append(g.Rows, c.row)
			}
			// Uniform owner pattern per column: renaming member j to slot j'
			// must map each row address onto an address with the same
			// ownership role.
			for k := 0; k < g.K; k++ {
				self := m.Owner(g.Rows[0][k]) == g.Members[0]
				for mi := range g.Members {
					o := m.Owner(g.Rows[mi][k])
					if self {
						if o != g.Members[mi] {
							return nil
						}
					} else if o != m.Owner(g.Rows[0][k]) {
						return nil
					}
				}
			}
			sym.groups = append(sym.groups, g)
		}
	}
	if len(sym.groups) == 0 || len(sym.groups) > 64 {
		return nil
	}
	return sym
}

// Groups returns the validated symmetric groups.
func (s *Symmetry) Groups() []SymGroup { return s.groups }

// MemberGroup returns the group index p belongs to, or -1.
func (s *Symmetry) MemberGroup(p PID) int { return int(s.memberOf[p]) }

// RoleAddr reports the (group, member, column) coordinates of a role address,
// or ok=false for ordinary addresses.
func (s *Symmetry) RoleAddr(a Addr) (group, member, col int, ok bool) {
	if int(a) >= len(s.roleOf) || s.roleOf[a] < 0 {
		return 0, 0, 0, false
	}
	return int(s.roleOf[a]), int(s.roleMem[a]), int(s.roleCol[a]), true
}

// NormFunc returns the address-normalization function for one group member,
// parameterized over a caller-owned mask of groups being sorted (read at call
// time, so one closure per member serves every state). Row addresses of the
// member map to negative tokens -(col+1); addresses outside every sorted
// group's rows map to their raw non-negative value; a sorted foreign row
// address fails.
func (s *Symmetry) NormFunc(group, member int, sortedMask *uint64) func(Addr) (int64, bool) {
	return func(a Addr) (int64, bool) {
		if int(a) >= len(s.roleOf) {
			return int64(a), true
		}
		g := s.roleOf[a]
		if g < 0 || (*sortedMask>>uint(g))&1 == 0 {
			return int64(a), true
		}
		if int(g) == group && int(s.roleMem[a]) == member {
			return -int64(s.roleCol[a]) - 1, true
		}
		return 0, false
	}
}

// SortBlockOrder fills order (which must have len(blocks) entries) with the
// indices of blocks in canonical bytewise-ascending order; ties keep input
// order. merged reports whether at least two blocks differ: the group's
// orbit under member permutation then holds more than one concrete state,
// so the canonical encoding genuinely merges PID-permuted states. Unlike
// "did the sort move anything", merged is invariant under permuting the
// input blocks, which keeps reduction counters deterministic when permuted
// representatives of one canonical state race for the claim table.
func SortBlockOrder(blocks [][]byte, order []int) (merged bool) {
	for i := range blocks {
		order[i] = i
	}
	// Insertion sort on a small fixed set of blocks; stable, zero alloc.
	for i := 1; i < len(blocks); i++ {
		for j := i; j > 0 && bytes.Compare(blocks[order[j]], blocks[order[j-1]]) < 0; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for i := 1; i < len(blocks); i++ {
		if !bytes.Equal(blocks[i], blocks[0]) {
			return true
		}
	}
	return false
}

// AppendBlocksInOrder appends the blocks to dst following order, each
// length-prefixed so distinct block multisets never collide.
func AppendBlocksInOrder(dst []byte, blocks [][]byte, order []int) []byte {
	for _, ix := range order {
		b := blocks[ix]
		dst = appendUvarint(dst, uint64(len(b)))
		dst = append(dst, b...)
	}
	return dst
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}
