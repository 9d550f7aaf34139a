package trace

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/memsim"
)

func access(pid memsim.PID, op memsim.Op, addr memsim.Addr, wrote bool) memsim.Event {
	return memsim.Event{
		Kind: memsim.EvAccess,
		PID:  pid,
		Acc:  memsim.Access{Op: op, Addr: addr},
		Res:  memsim.Result{Wrote: wrote, OK: true},
	}
}

func ownerFixed(m map[memsim.Addr]memsim.PID) OwnerFunc {
	return func(a memsim.Addr) memsim.PID {
		if o, ok := m[a]; ok {
			return o
		}
		return memsim.NoOwner
	}
}

// related reports whether rel(p, q) holds for any of the n processes q.
func related(rel func(p, q memsim.PID) bool, p memsim.PID, n int) bool {
	for q := 0; q < n; q++ {
		if rel(p, memsim.PID(q)) {
			return true
		}
	}
	return false
}

func TestSeesRelation(t *testing.T) {
	events := []memsim.Event{
		access(0, memsim.OpWrite, 5, true),
		access(1, memsim.OpRead, 5, false), // p1 sees p0
		access(2, memsim.OpRead, 6, false), // reads initial value: sees nobody
	}
	r := compute(events, ownerFixed(nil), 3)
	if !r.Sees(1, 0) {
		t.Fatal("p1 should see p0")
	}
	if related(r.Sees, 2, 3) {
		t.Fatal("p2 should see nobody")
	}
	if related(r.Sees, 0, 3) {
		t.Fatal("p0 should see nobody")
	}
}

func TestSeesThroughRMW(t *testing.T) {
	events := []memsim.Event{
		access(0, memsim.OpWrite, 3, true),
		access(1, memsim.OpFetchAdd, 3, true), // FAA returns p0's value: sees p0
		access(2, memsim.OpFetchAdd, 3, true), // sees p1
	}
	r := compute(events, ownerFixed(nil), 3)
	if !r.Sees(1, 0) || !r.Sees(2, 1) {
		t.Fatalf("RMW chain sees: p1->p0 %v, p2->p1 %v", r.Sees(1, 0), r.Sees(2, 1))
	}
	if r.Sees(2, 0) {
		t.Fatal("p2 should not see p0 directly (p1 overwrote)")
	}
}

func TestTouchesRelation(t *testing.T) {
	owner := ownerFixed(map[memsim.Addr]memsim.PID{7: 2})
	events := []memsim.Event{
		access(0, memsim.OpRead, 7, false), // p0 touches p2
		access(2, memsim.OpWrite, 7, true), // own module: no touch
		access(1, memsim.OpRead, 9, false), // global: no touch
	}
	r := compute(events, owner, 3)
	if !r.Touches(0, 2) {
		t.Fatal("p0 should touch p2")
	}
	if related(r.Touches, 2, 3) || related(r.Touches, 1, 3) {
		t.Fatalf("unexpected touches: p1 %v, p2 %v", related(r.Touches, 1, 3), related(r.Touches, 2, 3))
	}
}

func TestCheckRegular(t *testing.T) {
	owner := ownerFixed(map[memsim.Addr]memsim.PID{7: 2})
	events := []memsim.Event{
		access(0, memsim.OpWrite, 5, true),
		access(1, memsim.OpRead, 5, false), // p1 sees p0
		access(1, memsim.OpRead, 7, false), // p1 touches p2
		access(3, memsim.OpWrite, 8, true),
		access(4, memsim.OpWrite, 8, true), // multi-writer, p4 last
	}
	// Definition 6.6 quantifies over Par(H): while p2 takes no step,
	// touching its module is legal, so only conditions 1 and 3 trip.
	r := compute(events, owner, 5)
	vs := CheckRegular(r, nil)
	if len(vs) != 2 {
		t.Fatalf("violations = %v, want 2 (touching a non-participant is legal)", vs)
	}

	// Once p2 participates, the touch becomes a violation too.
	events = append(events, access(2, memsim.OpWrite, 9, true))
	r = compute(events, owner, 5)
	vs = CheckRegular(r, nil)
	if len(vs) != 3 {
		t.Fatalf("violations = %v, want 3", vs)
	}

	// Finishing p0, p2 and p4 restores regularity.
	vs = CheckRegular(r, []bool{0: true, 2: true, 4: true})
	if len(vs) != 0 {
		t.Fatalf("violations after finishing = %v, want none", vs)
	}
}

// TestCheckRegularOrder: CheckRegular lists the violations of all three
// conditions sorted by (Cond, P, Q, Addr), identically on every call.
func TestCheckRegularOrder(t *testing.T) {
	owner := ownerFixed(map[memsim.Addr]memsim.PID{10: 0, 11: 3, 12: 5})
	events := []memsim.Event{
		access(0, memsim.OpWrite, 5, true),
		access(4, memsim.OpWrite, 6, true),
		access(3, memsim.OpRead, 6, false),    // p3 sees p4
		access(1, memsim.OpRead, 5, false),    // p1 sees p0
		access(5, memsim.OpFetchAdd, 5, true), // p5 sees p0; a5 multi-writer
		access(2, memsim.OpRead, 5, false),    // p2 sees p5
		access(4, memsim.OpRead, 12, false),   // p4 touches p5
		access(2, memsim.OpRead, 10, false),   // p2 touches p0
		access(1, memsim.OpRead, 11, false),   // p1 touches p3
		access(2, memsim.OpWrite, 20, true),
		access(5, memsim.OpWrite, 20, true), // a20 multi-writer, p5 last
		access(3, memsim.OpWrite, 21, true),
		access(1, memsim.OpWrite, 21, true), // a21 multi-writer, p1 last
	}
	want := []Violation{
		{Cond: 1, P: 1, Q: 0}, {Cond: 1, P: 2, Q: 5}, {Cond: 1, P: 3, Q: 4}, {Cond: 1, P: 5, Q: 0},
		{Cond: 2, P: 1, Q: 3}, {Cond: 2, P: 2, Q: 0}, {Cond: 2, P: 4, Q: 5},
		{Cond: 3, P: 1, Addr: 21}, {Cond: 3, P: 5, Addr: 5}, {Cond: 3, P: 5, Addr: 20},
	}
	r := compute(events, owner, 6)
	for i := 0; i < 50; i++ {
		if got := CheckRegular(r, nil); !slices.Equal(got, want) {
			t.Fatalf("call %d: violations\n%v\nwant\n%v", i, got, want)
		}
	}
}

// TestWriteHistory: LastWriter and MultiWriter follow the nontrivial
// writes only.
func TestWriteHistory(t *testing.T) {
	events := []memsim.Event{
		access(0, memsim.OpWrite, 1, true),
		access(0, memsim.OpWrite, 1, true),
		access(1, memsim.OpCAS, 2, false), // failed CAS: no write
		access(1, memsim.OpWrite, 3, true),
		access(2, memsim.OpWrite, 3, true),
	}
	r := compute(events, ownerFixed(nil), 3)
	for _, c := range []struct {
		a     memsim.Addr
		w     memsim.PID
		ok    bool
		multi bool
	}{{1, 0, true, false}, {2, memsim.NoOwner, false, false}, {3, 2, true, true}, {9, memsim.NoOwner, false, false}} {
		w, ok := r.LastWriter(c.a)
		if w != c.w || ok != c.ok || r.MultiWriter(c.a) != c.multi {
			t.Errorf("a%d: LastWriter = p%d, %v, MultiWriter = %v; want p%d, %v, %v",
				c.a, w, ok, r.MultiWriter(c.a), c.w, c.ok, c.multi)
		}
	}
}

func TestCalls(t *testing.T) {
	events := []memsim.Event{
		{Kind: memsim.EvCallStart, PID: 0, CallSeq: 0, Proc: "Poll"},
		access(0, memsim.OpRead, 1, false),
		{Kind: memsim.EvCallStart, PID: 1, CallSeq: 0, Proc: "Signal"},
		access(1, memsim.OpWrite, 1, true),
		{Kind: memsim.EvCallEnd, PID: 0, CallSeq: 0, Proc: "Poll", Ret: 0},
		{Kind: memsim.EvCallEnd, PID: 1, CallSeq: 0, Proc: "Signal"},
		{Kind: memsim.EvCallStart, PID: 0, CallSeq: 1, Proc: "Poll"},
		access(0, memsim.OpRead, 1, false),
	}
	calls := Calls(events)
	if len(calls) != 3 {
		t.Fatalf("calls = %d, want 3", len(calls))
	}
	if !calls[0].Complete || calls[0].Steps != 1 || calls[0].Proc != "Poll" {
		t.Fatalf("call 0: %+v", calls[0])
	}
	if calls[2].Complete {
		t.Fatal("call 2 should be incomplete")
	}
}

func TestStepsByProcess(t *testing.T) {
	events := []memsim.Event{
		access(0, memsim.OpRead, 1, false),
		access(0, memsim.OpRead, 1, false),
		access(2, memsim.OpWrite, 1, true),
	}
	steps := StepsByProcess(events, 3)
	if steps[0] != 2 || steps[1] != 0 || steps[2] != 1 {
		t.Fatalf("steps = %v", steps)
	}
}

func TestParticipants(t *testing.T) {
	events := []memsim.Event{
		access(0, memsim.OpRead, 1, false),
		{Kind: memsim.EvCallStart, PID: 3, Proc: "Poll"}, // call start alone is not a step
	}
	r := compute(events, ownerFixed(nil), 4)
	if !r.Participant(0) || r.Participant(3) {
		t.Fatalf("participants: p0 %v, p3 %v", r.Participant(0), r.Participant(3))
	}
}

func TestWriteJSON(t *testing.T) {
	owner := ownerFixed(map[memsim.Addr]memsim.PID{1: 0})
	events := []memsim.Event{
		{Kind: memsim.EvCallStart, PID: 0, Proc: "Poll"},
		access(0, memsim.OpRead, 1, false),
		{Kind: memsim.EvCallEnd, PID: 0, Proc: "Poll", Ret: 1},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, events, owner, 2); err != nil {
		t.Fatal(err)
	}
	var decoded JSONTrace
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if decoded.N != 2 || len(decoded.Events) != 3 {
		t.Fatalf("decoded %+v", decoded)
	}
	acc := decoded.Events[1]
	if acc.Kind != "access" || acc.Op != "read" || acc.RMRDSM {
		t.Fatalf("access event %+v (read of own module must not be a DSM RMR)", acc)
	}
	if !acc.RMRCC {
		t.Fatalf("first CC read must be an RMR: %+v", acc)
	}
}

// TestWriteJSONRoundTripZeroValues: addr 0, owner PID 0, value 0 and
// return 0 are all legitimate and must survive serialization — omitempty
// on those fields used to drop them, making serialized traces ambiguous
// (the first allocated address IS 0, PID 0 owns DSM-local cells, and 0 is
// a common register value and return).
func TestWriteJSONRoundTripZeroValues(t *testing.T) {
	owner := ownerFixed(map[memsim.Addr]memsim.PID{0: 0})
	events := []memsim.Event{
		{Kind: memsim.EvCallStart, PID: 1, Proc: "passage"},
		{
			Kind: memsim.EvAccess,
			PID:  1,
			Proc: "passage",
			Acc:  memsim.Access{Op: memsim.OpRead, Addr: 0},
			Res:  memsim.Result{Val: 0, OK: true}, // reads 0 from address 0
		},
		{Kind: memsim.EvCallEnd, PID: 1, Proc: "passage", Ret: 0},
	}
	for i := range events {
		events[i].Seq = i
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, events, owner, 2); err != nil {
		t.Fatal(err)
	}
	// The zero-valued fields must be present in the raw serialization.
	for _, key := range []string{`"addr":`, `"addrOwner":`, `"value":`, `"ret":`} {
		if !bytes.Contains(buf.Bytes(), []byte(key)) {
			t.Errorf("serialized trace omits %s: %s", key, buf.String())
		}
	}
	var decoded JSONTrace
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	acc := decoded.Events[1]
	if acc.Addr != 0 || acc.AddrOwn != 0 || acc.Value != 0 {
		t.Fatalf("access event did not round-trip zeros: %+v", acc)
	}
	// addr 0 belongs to PID 0's module: remote to PID 1 under DSM. A
	// serialization that dropped addrOwner could not support this verdict.
	if !acc.RMRDSM {
		t.Fatal("read of another module's word must be a DSM RMR")
	}
	end := decoded.Events[2]
	if end.Kind != "callEnd" || end.Ret != 0 {
		t.Fatalf("call-end event did not round-trip ret 0: %+v", end)
	}
	// Call-boundary events touch no address: their owner must be NoOwner,
	// not a misleading module 0.
	for _, i := range []int{0, 2} {
		if own := decoded.Events[i].AddrOwn; own != int(memsim.NoOwner) {
			t.Fatalf("event %d (%s): addrOwner = %d, want %d",
				i, decoded.Events[i].Kind, own, memsim.NoOwner)
		}
	}
	// An address NOT owned by any process must still serialize its owner
	// (-1), distinguishable from module 0.
	events[1].Acc.Addr = 5
	buf.Reset()
	if err := WriteJSON(&buf, events, owner, 2); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Events[1].AddrOwn != int(memsim.NoOwner) {
		t.Fatalf("global word owner = %d, want %d", decoded.Events[1].AddrOwn, memsim.NoOwner)
	}
}
