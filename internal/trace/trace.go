// Package trace analyzes execution traces produced by internal/memsim: it
// computes the inter-process information-flow relations of Definitions
// 6.4–6.5 ("sees" and "touches"), checks the regularity conditions of
// Definition 6.6, and summarizes procedure calls. The lower-bound adversary
// uses these analyses both to drive its construction and to *verify*, at
// run time, that every history it builds is regular.
package trace

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/memsim"
)

// OwnerFunc maps an address to the process whose memory module holds it
// (memsim.NoOwner for global words).
type OwnerFunc func(memsim.Addr) memsim.PID

// Relations captures who communicated with whom in a trace. It is dense:
// the process relations are PID-indexed bit rows and the write history is
// address-indexed.
type Relations struct {
	n     int // processes: PIDs 0..n-1
	words int // uint64 words per relation row
	// sees and touches hold n rows of words bits each: bit q of row p is
	// set if p sees q (Definition 6.4) or touches q (Definition 6.5).
	sees, touches []uint64
	// participants marks the processes that took at least one step.
	participants []bool
	// lastWriter holds, per address, the process whose nontrivial
	// operation wrote it last (memsim.NoOwner if none did), and
	// multiWriter whether two or more processes overwrote it.
	lastWriter  []memsim.PID
	multiWriter []bool
}

// Compute scans the events of a history of n processes into r and
// replaces what r held. r's storage is reused when it is large enough,
// so a caller that audits many histories keeps one Relations and
// allocates only when a history outgrows it. The zero Relations is ready
// to use.
func (r *Relations) Compute(events []memsim.Event, owner OwnerFunc, n int) {
	size := 0
	for _, ev := range events {
		if ev.Kind == memsim.EvAccess && int(ev.Acc.Addr) >= size {
			size = int(ev.Acc.Addr) + 1
		}
	}
	words := (n + 63) / 64
	r.n, r.words = n, words
	r.sees = zeroed(r.sees, n*words)
	r.touches = zeroed(r.touches, n*words)
	r.participants = zeroed(r.participants, n)
	r.lastWriter = zeroed(r.lastWriter, size)
	r.multiWriter = zeroed(r.multiWriter, size)
	for a := range r.lastWriter {
		r.lastWriter[a] = memsim.NoOwner
	}
	for _, ev := range events {
		if ev.Kind != memsim.EvAccess {
			continue
		}
		p := ev.PID
		r.participants[p] = true
		a := ev.Acc.Addr
		if own := owner(a); own != memsim.NoOwner && own != p {
			r.set(r.touches, p, own)
		}
		// Reads observe the last writer; RMW operations also return the
		// old value, hence also "see" its writer.
		w := r.lastWriter[a]
		if readsValue(ev.Acc.Op) && w != memsim.NoOwner && w != p {
			r.set(r.sees, p, w)
		}
		if ev.Res.Wrote {
			if w != memsim.NoOwner && w != p {
				r.multiWriter[a] = true
			}
			r.lastWriter[a] = p
		}
	}
}

// zeroed returns s resliced to length n with every element zero, growing
// it only when its capacity is short.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (r *Relations) set(rel []uint64, p, q memsim.PID) {
	rel[int(p)*r.words+int(q)/64] |= 1 << (uint(q) % 64)
}

// readsValue reports whether the op's semantics expose the previous value
// of the word to the caller (and hence can transfer information).
func readsValue(op memsim.Op) bool {
	switch op {
	case memsim.OpRead, memsim.OpLL, memsim.OpCAS, memsim.OpFetchAdd,
		memsim.OpFetchStore, memsim.OpTestAndSet:
		return true
	case memsim.OpWrite, memsim.OpSC:
		// SC exposes only success/failure; for regularity analysis we
		// treat a successful SC as seeing the linked word's writer via
		// the preceding LL, which is already a read.
		return false
	default:
		return false
	}
}

// Violation describes one failed regularity condition of Definition 6.6.
type Violation struct {
	Cond int // 1 = sees, 2 = touches, 3 = multi-writer last write
	P, Q memsim.PID
	Addr memsim.Addr
}

// String renders the violation.
func (v Violation) String() string {
	switch v.Cond {
	case 1:
		return fmt.Sprintf("regularity(1): p%d sees active p%d", v.P, v.Q)
	case 2:
		return fmt.Sprintf("regularity(2): p%d touches active p%d", v.P, v.Q)
	default:
		return fmt.Sprintf("regularity(3): a%d multi-writer, last writer p%d active", v.Addr, v.P)
	}
}

// CheckRegular verifies the three conditions of Definition 6.6 against the
// relations of a trace, given the finished processes by PID (PIDs past
// its end are unfinished). All three conditions quantify over
// participating processes only ("for any distinct p, q ∈ Par(H)"), so
// accessing the memory module of a process that never took a step is not
// a violation. It returns all violations found, sorted by (Cond, P, Q,
// Addr); nil means the history is regular.
func CheckRegular(r *Relations, finished []bool) []Violation {
	unfinished := func(q memsim.PID) bool {
		return r.participants[q] && (int(q) >= len(finished) || !finished[q])
	}
	var out []Violation
	for cond, rel := range [2][]uint64{r.sees, r.touches} {
		for p := 0; p < r.n; p++ {
			for i, w := range rel[p*r.words : (p+1)*r.words] {
				for ; w != 0; w &= w - 1 {
					q := memsim.PID(i*64 + bits.TrailingZeros64(w))
					if int(q) != p && unfinished(q) {
						out = append(out, Violation{Cond: cond + 1, P: memsim.PID(p), Q: q})
					}
				}
			}
		}
	}
	for a, multi := range r.multiWriter {
		if last := r.lastWriter[a]; multi && (int(last) >= len(finished) || !finished[last]) {
			out = append(out, Violation{Cond: 3, P: last, Addr: memsim.Addr(a)})
		}
	}
	slices.SortFunc(out, func(x, y Violation) int {
		return cmp.Or(cmp.Compare(x.Cond, y.Cond), cmp.Compare(x.P, y.P),
			cmp.Compare(x.Q, y.Q), cmp.Compare(x.Addr, y.Addr))
	})
	return out
}

// Call summarizes one completed or partial procedure call.
type Call struct {
	PID      memsim.PID
	CallSeq  int
	Proc     string
	Steps    int
	Ret      memsim.Value
	Complete bool
}

// Calls extracts per-call summaries from a trace, in call-start order.
func Calls(events []memsim.Event) []Call {
	var out []Call
	open := make(map[memsim.PID]int) // pid -> index into out
	for _, ev := range events {
		switch ev.Kind {
		case memsim.EvCallStart:
			open[ev.PID] = len(out)
			out = append(out, Call{PID: ev.PID, CallSeq: ev.CallSeq, Proc: ev.Proc})
		case memsim.EvAccess:
			if i, ok := open[ev.PID]; ok {
				out[i].Steps++
			}
		case memsim.EvCallEnd:
			if i, ok := open[ev.PID]; ok {
				out[i].Ret = ev.Ret
				out[i].Complete = true
				delete(open, ev.PID)
			}
		}
	}
	return out
}
