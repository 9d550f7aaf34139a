package memsim

import "strconv"

// Value is the content of one shared-memory word. Booleans are encoded as
// 0/1 and process IDs as their integer value; Nil marks "no process".
type Value = int64

// Nil is the distinguished "no value / no process" constant used by
// algorithms that store optional process IDs in shared memory.
const Nil Value = -1

// PID identifies a process (and, in the DSM model, its memory module).
// Valid processes are numbered 0..N-1.
type PID int

// NoOwner marks a memory word that lives in no process's module. In the DSM
// cost model such a word is remote to every process.
const NoOwner PID = -1

// Addr is the index of a shared-memory word.
type Addr int

// Op enumerates the atomic primitives of the model: reads, writes,
// Compare-And-Swap and Load-Linked/Store-Conditional (the primitives covered
// by Theorem 6.2 and Corollary 6.14), plus the read-modify-write primitives
// (Fetch-And-Add, Fetch-And-Store, Test-And-Set) that Section 7 uses to
// close the gap in the DSM model.
type Op uint8

// The atomic operations supported by the machine.
const (
	OpRead Op = iota + 1
	OpWrite
	OpCAS
	OpLL
	OpSC
	OpFetchAdd
	OpFetchStore
	OpTestAndSet
)

// String returns the conventional name of the operation.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCAS:
		return "CAS"
	case OpLL:
		return "LL"
	case OpSC:
		return "SC"
	case OpFetchAdd:
		return "FAA"
	case OpFetchStore:
		return "FAS"
	case OpTestAndSet:
		return "TAS"
	default:
		return "op(" + strconv.Itoa(int(o)) + ")"
	}
}

// Access describes one pending or applied atomic operation.
type Access struct {
	Op   Op
	Addr Addr
	// Arg1 is the written value for OpWrite and OpSC, the expected value
	// for OpCAS, the delta for OpFetchAdd, and the stored value for
	// OpFetchStore. It is unused for reads, LL and TAS.
	Arg1 Value
	// Arg2 is the new value for OpCAS and unused otherwise.
	Arg2 Value
}

// String renders the access for diagnostics, e.g. "write a12 <- 1".
func (a Access) String() string {
	s := a.Op.String() + " a" + strconv.Itoa(int(a.Addr))
	switch a.Op {
	case OpWrite, OpSC, OpFetchStore:
		s += " <- " + strconv.FormatInt(a.Arg1, 10)
	case OpFetchAdd:
		s += " += " + strconv.FormatInt(a.Arg1, 10)
	case OpCAS:
		s += " " + strconv.FormatInt(a.Arg1, 10) + "->" + strconv.FormatInt(a.Arg2, 10)
	}
	return s
}

// Access constructors, the vocabulary of resumable frames: one per atomic
// primitive.

// AccRead builds a read access.
func AccRead(a Addr) Access { return Access{Op: OpRead, Addr: a} }

// AccWrite builds a write access storing v.
func AccWrite(a Addr, v Value) Access { return Access{Op: OpWrite, Addr: a, Arg1: v} }

// AccCAS builds a compare-and-swap access replacing old with new.
func AccCAS(a Addr, old, new Value) Access {
	return Access{Op: OpCAS, Addr: a, Arg1: old, Arg2: new}
}

// AccLL builds a load-linked access.
func AccLL(a Addr) Access { return Access{Op: OpLL, Addr: a} }

// AccSC builds a store-conditional access writing v.
func AccSC(a Addr, v Value) Access { return Access{Op: OpSC, Addr: a, Arg1: v} }

// AccFetchAdd builds a fetch-and-add access with the given delta.
func AccFetchAdd(a Addr, delta Value) Access {
	return Access{Op: OpFetchAdd, Addr: a, Arg1: delta}
}

// AccFetchStore builds a fetch-and-store access storing v.
func AccFetchStore(a Addr, v Value) Access {
	return Access{Op: OpFetchStore, Addr: a, Arg1: v}
}

// AccTAS builds a test-and-set access.
func AccTAS(a Addr) Access { return Access{Op: OpTestAndSet, Addr: a} }

// Result is the outcome of applying an Access to the machine.
type Result struct {
	// Val is the value read (reads, LL) or the old value (FAA, FAS, TAS).
	Val Value
	// OK reports success for OpCAS, OpSC and OpTestAndSet; it is true for
	// all other operations.
	OK bool
	// Wrote reports whether the operation overwrote the word — a
	// "nontrivial" operation in the paper's Section 2 terminology. A
	// failed CAS or SC does not overwrite; a TAS always does.
	Wrote bool
}

// EventKind classifies trace events.
type EventKind uint8

// Trace event kinds: a shared-memory access, the start of a procedure call,
// the completion of a procedure call, and a process crash (the in-flight
// call is abandoned; the process restarts it from the top).
const (
	EvAccess EventKind = iota + 1
	EvCallStart
	EvCallEnd
	EvCrash
)

// Event is one entry of an execution trace. Access events carry the applied
// access and its result; call-boundary events carry the procedure name and,
// for EvCallEnd, the call's return value.
type Event struct {
	Seq  int
	Kind EventKind
	PID  PID
	// CallSeq numbers the calls of a single process, starting at 0.
	CallSeq int
	// Proc is the procedure name ("Poll", "Signal", ...).
	Proc string
	// Acc and Res are set for EvAccess events.
	Acc Access
	Res Result
	// Ret is the return value for EvCallEnd events.
	Ret Value
	// Fault marks fault events: FaultCrash on EvCrash events, and
	// FaultLostCAS on the EvAccess event of a CAS whose memory effect
	// landed but whose response was dropped (Res carries the true memory
	// outcome; the frame observed failure). FaultNone everywhere else, so
	// fault-free traces are unchanged.
	Fault FaultKind
}
