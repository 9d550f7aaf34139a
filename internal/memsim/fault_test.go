package memsim

import (
	"testing"
)

func TestParseFaultKinds(t *testing.T) {
	cases := []struct {
		in   string
		want FaultSet
		err  bool
	}{
		{"", 0, false},
		{"crash", SetCrash, false},
		{"lostcas", SetLostCAS, false},
		{"crash,lostcas", SetCrash | SetLostCAS, false},
		{"lostcas, crash", SetCrash | SetLostCAS, false},
		{"meteor", 0, true},
	}
	for _, c := range cases {
		got, err := ParseFaultKinds(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseFaultKinds(%q): err %v, want err=%v", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("ParseFaultKinds(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if s := (SetCrash | SetLostCAS).String(); s != "crash,lostcas" {
		t.Errorf("kinds string = %q", s)
	}
	rt, err := ParseFaultKinds((SetCrash | SetLostCAS).String())
	if err != nil || rt != SetCrash|SetLostCAS {
		t.Errorf("kinds did not round-trip: %v, %v", rt, err)
	}
}

func TestFaultPolicyEnabled(t *testing.T) {
	if (FaultPolicy{}).Enabled() {
		t.Error("zero policy enabled")
	}
	if (FaultPolicy{Max: 2}).Enabled() {
		t.Error("kindless policy enabled")
	}
	if (FaultPolicy{Kinds: SetCrash}).Enabled() {
		t.Error("budgetless policy enabled")
	}
	if !(FaultPolicy{Max: 1, Kinds: SetCrash}).Enabled() {
		t.Error("crash policy disabled")
	}
	if s := (FaultPolicy{}).String(); s != "" {
		t.Errorf("zero policy string = %q, want empty", s)
	}
	p := FaultPolicy{Max: 2, Kinds: SetCrash | SetLostCAS, Vol: VolOwned}
	if s := p.String(); s != "k=2,kinds=crash,lostcas,vol=owned" {
		t.Errorf("policy string = %q", s)
	}
}

// crashTestExec deploys a two-word instance where p0 writes its owned
// word and the shared word, then parks on a read — a pending access to
// crash at.
type crashProbeInstance struct {
	owned, shared Addr
}

// ProgramInto: write(owned, 7); write(shared, 9); read(shared);
// return 1.
func (in crashProbeInstance) ProgramInto(dst Resumable, pid PID, kind CallKind) (Resumable, error) {
	return &testFrame{step: func(f *testFrame, _ Result) (Access, bool) {
		switch f.pc++; f.pc {
		case 1:
			return AccWrite(in.owned, 7), true
		case 2:
			return AccWrite(in.shared, 9), true
		case 3:
			return AccRead(in.shared), true
		}
		f.ret = 1
		return Access{}, false
	}}, nil
}

func newCrashProbe(t *testing.T) (*Execution, crashProbeInstance) {
	t.Helper()
	var in crashProbeInstance
	exec, err := NewExecution(func(m *Machine, n int) (Instance, error) {
		in.owned = m.Alloc(0, "OWN", 1, 0)
		in.shared = m.Alloc(NoOwner, "SH", 1, 0)
		return in, nil
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return exec, in
}

// TestCrashSemantics: a crash drops the frame (the call restarts from
// scratch), and under VolOwned the crashed process's dirty owned words
// revert to their initial values while non-owned words keep theirs.
func TestCrashSemantics(t *testing.T) {
	for _, vol := range []Volatility{VolStable, VolOwned} {
		exec, in := newCrashProbe(t)
		if err := exec.Start(0, CallPoll); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // both writes land; the read is pending
			if _, err := exec.Step(0); err != nil {
				t.Fatal(err)
			}
		}
		ev, err := exec.Crash(0, vol)
		if err != nil {
			t.Fatalf("vol=%v: crash: %v", vol, err)
		}
		if ev.Kind != EvCrash || ev.Fault != FaultCrash {
			t.Fatalf("vol=%v: crash event %+v", vol, ev)
		}
		if !exec.Idle(0) {
			t.Fatalf("vol=%v: crashed process not idle", vol)
		}
		m := exec.Machine()
		wantOwned := Value(7)
		if vol == VolOwned {
			wantOwned = 0 // reverted to its initial value
		}
		if got := m.Load(in.owned); got != wantOwned {
			t.Errorf("vol=%v: owned word = %d, want %d", vol, got, wantOwned)
		}
		if got := m.Load(in.shared); got != 9 {
			t.Errorf("vol=%v: shared word = %d, want 9 (never reverted)", vol, got)
		}
		// The restarted call reuses the crashed call's sequence number.
		if err := exec.Start(0, CallPoll); err != nil {
			t.Fatalf("vol=%v: restart: %v", vol, err)
		}
	}
}

// TestCrashRequiresPending: crashes are choice points at pending
// accesses only.
func TestCrashRequiresPending(t *testing.T) {
	exec, _ := newCrashProbe(t)
	if _, err := exec.Crash(0, VolStable); err == nil {
		t.Fatal("crash of an idle process accepted")
	}
}

type casProbeInstance struct {
	slot Addr
}

// ProgramInto: return CAS(slot, 0, pid+1).
func (in casProbeInstance) ProgramInto(dst Resumable, pid PID, kind CallKind) (Resumable, error) {
	return &testFrame{step: func(f *testFrame, prev Result) (Access, bool) {
		f.pc++
		if f.pc == 1 {
			return AccCAS(in.slot, 0, Value(pid)+1), true
		}
		if prev.OK {
			f.ret = 1
		}
		return Access{}, false
	}}, nil
}

// TestLostCASSemantics: the lost CAS takes effect in memory while the
// frame observes failure; it is only legal when the CAS would succeed.
func TestLostCASSemantics(t *testing.T) {
	var in casProbeInstance
	exec, err := NewExecution(func(m *Machine, n int) (Instance, error) {
		in.slot = m.Alloc(NoOwner, "SLOT", 1, 0)
		return in, nil
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.Start(0, CallPoll); err != nil {
		t.Fatal(err)
	}
	ev, err := exec.StepLostCAS(0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Fault != FaultLostCAS || !ev.Res.OK {
		t.Fatalf("lost-CAS event %+v: want Fault=lostcas with the true (succeeding) result", ev)
	}
	if got := exec.Machine().Load(in.slot); got != 1 {
		t.Fatalf("slot = %d after lost CAS, want 1 (the CAS took effect)", got)
	}
	for {
		if _, done := exec.CallEnded(0); done {
			break
		}
		if _, err := exec.Step(0); err != nil {
			t.Fatal(err)
		}
	}
	ret, err := exec.Finish(0)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 0 {
		t.Fatalf("caller observed success (%d) though the response was dropped", ret)
	}

	// p1's CAS now loses against the slot value 1, so dropping its
	// response would be indistinguishable from the plain failure: illegal.
	if err := exec.Start(1, CallPoll); err != nil {
		t.Fatal(err)
	}
	if _, err := exec.StepLostCAS(1); err == nil {
		t.Fatal("lost CAS accepted for a CAS that would fail")
	}
}

// TestFaultActionsReplay: crash and lost-CAS actions round-trip through
// the Execution action log.
func TestFaultActionsReplay(t *testing.T) {
	exec, in := newCrashProbe(t)
	if err := exec.Start(0, CallPoll); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := exec.Step(0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := exec.Crash(0, VolOwned); err != nil {
		t.Fatal(err)
	}
	actions := exec.Actions()
	events := exec.Events()

	re, err := Replay(func(m *Machine, n int) (Instance, error) {
		m.Alloc(0, "OWN", 1, 0)
		m.Alloc(NoOwner, "SH", 1, 0)
		return in, nil
	}, 2, actions)
	if err != nil {
		t.Fatalf("replaying fault actions: %v", err)
	}
	got := re.Events()
	if len(got) != len(events) {
		t.Fatalf("replay produced %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("replay event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
}
