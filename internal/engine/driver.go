package engine

import "repro/internal/memsim"

// Driver runs schedules on a memsim.Execution under the core's
// scheduling rules — the Execution-based mirror of Core.Settle and
// Core.Apply, for the engines' independent reference paths (the
// searcher's witness replay and the explorer tests' replay enumeration).
type Driver struct {
	Exec     *memsim.Execution
	scripts  map[memsim.PID][]memsim.CallKind
	fp       memsim.FaultPolicy
	progress map[memsim.PID]int
	kinds    map[memsim.PID]memsim.CallKind
	faults   int
	choices  []Choice // Settle's result, reused by the next Settle
}

// NewDriver drives exec through the given scripts under fault policy fp.
func NewDriver(exec *memsim.Execution, scripts map[memsim.PID][]memsim.CallKind, fp memsim.FaultPolicy) *Driver {
	return &Driver{
		Exec:     exec,
		scripts:  scripts,
		fp:       fp,
		progress: make(map[memsim.PID]int, len(scripts)),
		kinds:    make(map[memsim.PID]memsim.CallKind, len(scripts)),
	}
}

// Settle collects completed calls (eagerly, with the poll-stop rule) and
// returns the open scheduling choices in Core.Settle's order: per PID a
// pending step or a call start, then the fault choice points — PID
// order, crash before lost CAS. The slice is the driver's own buffer,
// valid until the next Settle.
func (d *Driver) Settle() ([]Choice, error) {
	choices := d.choices[:0]
	for pid := 0; pid < d.Exec.N(); pid++ {
		p := memsim.PID(pid)
		script, ok := d.scripts[p]
		if !ok {
			continue
		}
		if _, done := d.Exec.CallEnded(p); done {
			ret, err := d.Exec.Finish(p)
			if err != nil {
				return nil, err
			}
			if d.kinds[p] == memsim.CallPoll && ret != 0 {
				d.progress[p] = len(script)
			}
		}
		if _, ok := d.Exec.Pending(p); ok {
			choices = append(choices, Choice{PID: p})
			continue
		}
		if d.Exec.Idle(p) && d.progress[p] < len(script) {
			choices = append(choices, Choice{PID: p, Start: true})
		}
	}
	if !d.fp.Enabled() || d.faults >= d.fp.Max {
		d.choices = choices
		return choices, nil
	}
	for pid := 0; pid < d.Exec.N(); pid++ {
		p := memsim.PID(pid)
		acc, ok := d.Exec.Pending(p)
		if !ok {
			continue
		}
		if d.fp.Kinds.Has(memsim.FaultCrash) {
			choices = append(choices, Choice{PID: p, Fault: memsim.FaultCrash})
		}
		// A lost CAS is only distinguishable from a plain failed CAS
		// when the CAS would have succeeded.
		if d.fp.Kinds.Has(memsim.FaultLostCAS) && acc.Op == memsim.OpCAS &&
			d.Exec.Machine().Load(acc.Addr) == acc.Arg1 {
			choices = append(choices, Choice{PID: p, Fault: memsim.FaultLostCAS})
		}
	}
	d.choices = choices
	return choices, nil
}

// Apply performs one settled choice.
func (d *Driver) Apply(c Choice) error {
	var err error
	switch {
	case c.Fault == memsim.FaultCrash:
		// The crashed call never completed; the same scripted call
		// restarts on the process's next start choice.
		_, err = d.Exec.Crash(c.PID, d.fp.Vol)
		d.progress[c.PID]--
		d.faults++
	case c.Fault == memsim.FaultLostCAS:
		_, err = d.Exec.StepLostCAS(c.PID)
		d.faults++
	case c.Start:
		kind := d.scripts[c.PID][d.progress[c.PID]]
		err = d.Exec.Start(c.PID, kind)
		d.kinds[c.PID] = kind
		d.progress[c.PID]++
	default:
		_, err = d.Exec.Step(c.PID)
	}
	return err
}
