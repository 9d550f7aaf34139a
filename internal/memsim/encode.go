package memsim

import (
	"encoding/binary"
	"math/bits"
	"reflect"
	"sync"
	"unsafe"
)

// State encoding: AppendFrameState writes a frame's canonical mutable
// state into a caller-owned scratch buffer — varint integers, raw float
// bits, length-prefixed strings and slices, no text formatting — and the
// per-type encoding plan (field kinds and offsets, resolved once per
// reflect.Type) is replayed with raw pointer reads per node, so the
// steady-state encode allocates nothing.
//
// The plain field walk renders scalars by value, slices and nested
// structs element-wise, sub-frames (pointers to other Resumables) by
// content, and any other pointer by nil-ness alone — under the frame
// discipline those reference immutable deployment data (the instance,
// address tables) whose identity is fixed by the deterministic deployment
// and whose type is fixed by the field. Frame type names are written by
// content, never as per-process identities, and heap addresses never
// enter the encoding, because keys are compared across executions and OS
// processes (the parallel explorer's shared dedup table, the sharded
// search, checkpoint resume). Every component is self-delimiting, so
// concatenations stay injective. The planned walk and its reflective
// fallback (appendCanonicalValue) must induce the same state partition,
// pinned by the differential tests in encode_test.go; the per-algorithm
// partition suites in internal/explore and internal/search check the
// engines' keys against an independently derived framing.

// StateAppender is implemented by resumable frames whose canonical state
// encoding differs from the plain field walk: frames holding sub-frames in
// unexported fields (which the walk renders field by field, skipping the
// sub-frame's own StateAppender), or slices written below a cursor (whose
// tails hold branch-dependent garbage). AppendState appends the state to
// dst and returns the extended buffer. Equal logical states must produce
// equal bytes and different states different bytes — the contract the
// engines' state dedup rests on — and the bytes must be engine-independent
// (derived from machine addresses and frame values, never from heap
// addresses). Frames must implement it for any mutable state the walk
// cannot see canonically: per-call allocations, cursor-written slice
// tails, and any pointer whose IDENTITY varies at runtime (e.g. a cursor
// into a linked structure — the walk encodes non-frame pointers by
// nil-ness alone, so states differing only in which same-typed object is
// referenced would wrongly merge).
type StateAppender interface {
	AppendState(dst []byte) []byte
}

// resumableType is the interface frames are checked against when the
// walk meets a pointer: frame pointers encode by content, everything else
// is deployment data and encodes by nil-ness.
var resumableType = reflect.TypeOf((*Resumable)(nil)).Elem()

// Frame tags of the binary encoding. Every frame rendering starts with one
// tag byte; the content after the type name is length-prefixed, so frame
// encodings are self-delimiting wherever they appear in a key stream.
const (
	tagNil     = 0 // nil frame
	tagFrame   = 1 // type name + length-prefixed content follows
	tagCustom  = 2 // content from StateAppender
	tagWalk    = 3 // content from the planned field walk
	tagNilPtr  = 4 // nil pointer (canonical walk)
	tagPtr     = 5 // non-nil non-frame pointer (type is static)
	tagOpaque  = 6 // map/chan/func: type is all that can be said
	tagStruct  = 7 // nested struct open (reflective fallback)
	tagEnd     = 8 // nested struct close
	tagSubWalk = 9 // unexported sub-frame: type name + plain walk content
)

// AppendFrameState appends r's canonical mutable state to dst: the type
// name, then the frame's own StateAppender content when implemented and
// the planned field walk otherwise.
func AppendFrameState(dst []byte, r Resumable) []byte {
	if r == nil {
		return append(dst, tagNil)
	}
	dst = append(dst, tagFrame)
	dst = appendTypeName(dst, reflect.TypeOf(r))
	return appendFrameContent(dst, r)
}

// AppendKeyFrameState is AppendFrameState minus the type name, for the
// engines' top-level state keys only. There the scheduler fields that
// precede the frame bytes — pid, phase, call kind (search) or script
// progress (explore) — already determine the frame's concrete type for a
// fixed configuration (ProgramInto returns one type per (pid, kind)),
// so the name is ~20 hashed-and-copied bytes per frame per node carrying
// zero information. Sub-frames inside a frame's own AppendState must keep
// using AppendFrameState: a sub-frame field may change type from state to
// state (the in-flight poll of signal's test-only blockified waiter does),
// and only the name separates same-bytes states of different types there.
// The per-algorithm partition suites exercise the engine keys end to end
// against an oracle framing that keeps the names.
func AppendKeyFrameState(dst []byte, r Resumable) []byte {
	if r == nil {
		return append(dst, tagNil)
	}
	dst = append(dst, tagFrame)
	return appendFrameContent(dst, r)
}

// appendFrameContent renders the length-prefixed frame content: a 4-byte
// slot is reserved and patched after the fact so the rendering is
// self-delimiting without a second encoding pass.
func appendFrameContent(dst []byte, r Resumable) []byte {
	dst = append(dst, 0, 0, 0, 0)
	start := len(dst)
	switch enc := r.(type) {
	case StateAppender:
		dst = append(dst, tagCustom)
		dst = enc.AppendState(dst)
	default:
		dst = append(dst, tagWalk)
		v := reflect.ValueOf(r)
		if v.Kind() == reflect.Pointer && !v.IsNil() {
			dst = planFor(reflect.TypeOf(r).Elem()).append(dst, v.UnsafePointer())
		} else {
			dst = appendCanonicalValue(dst, v)
		}
	}
	binary.LittleEndian.PutUint32(dst[start-4:start], uint32(len(dst)-start))
	return dst
}

// appendTypeName appends t's content-based identity: the length-prefixed
// type name string. Names, not per-process interned IDs, because state
// keys cross process boundaries (sharded search workers, checkpoint
// resume) where any process-local numbering would diverge.
func appendTypeName(dst []byte, t reflect.Type) []byte {
	name := t.String() // cached by the runtime; no allocation per call
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	return append(dst, name...)
}

// A plan is the cached encoding recipe for one frame struct type: the
// flattened field list (nested structs inline at summed offsets) with each
// field's scalar kind, offset and — where the field needs it — the
// reflective metadata for the slow fallback. Plans are built once per
// reflect.Type and replayed with unsafe pointer reads per node.
type plan struct {
	ops []planOp
}

// planOp op codes. Scalar codes double as slice element codes.
const (
	opBool = iota
	opInt8
	opInt16
	opInt32
	opInt64
	opUint8
	opUint16
	opUint32
	opUint64
	opFloat32
	opFloat64
	opString
	opSliceScalar  // slice of scalar elements: elem code + size cached
	opPtrFrame     // exported pointer to a Resumable: encode via AppendFrameState
	opPtrFrameWalk // unexported pointer to a Resumable: type name + plain walk
	opPtrOther     // pointer to deployment data: nil-ness only (type is static)
	opOpaque       // map/chan/func: constant per field
	opReflect      // anything else: reflective canonical fallback
)

type planOp struct {
	code     uint8
	elem     uint8 // opSliceScalar: element scalar code
	off      uintptr
	elemSize uintptr
	ft       reflect.Type // field type (pointer elem / fallback value type)
	sub      *plan        // opPtrFrameWalk: the pointee's plan
}

var planCache sync.Map // reflect.Type -> *plan

// planFor returns the (possibly cached) encoding plan for struct type t.
func planFor(t reflect.Type) *plan {
	if p, ok := planCache.Load(t); ok {
		return p.(*plan)
	}
	p := buildPlan(t)
	actual, _ := planCache.LoadOrStore(t, p)
	return actual.(*plan)
}

func scalarCode(k reflect.Kind, size uintptr) (uint8, bool) {
	switch k {
	case reflect.Bool:
		return opBool, true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		switch size {
		case 1:
			return opInt8, true
		case 2:
			return opInt16, true
		case 4:
			return opInt32, true
		default:
			return opInt64, true
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		switch size {
		case 1:
			return opUint8, true
		case 2:
			return opUint16, true
		case 4:
			return opUint32, true
		default:
			return opUint64, true
		}
	case reflect.Float32:
		return opFloat32, true
	case reflect.Float64:
		return opFloat64, true
	case reflect.String:
		return opString, true
	}
	return 0, false
}

func buildPlan(t reflect.Type) *plan {
	p := &plan{}
	p.addStruct(t, 0)
	return p
}

// addStruct flattens t's fields (declaration order, nested structs inline)
// into ops at base-relative offsets. Flattening does not change the
// partition: for a fixed frame type the structural wrappers the
// reflective walk writes are constants.
func (p *plan) addStruct(t reflect.Type, base uintptr) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		off := base + f.Offset
		ft := f.Type
		if code, ok := scalarCode(ft.Kind(), ft.Size()); ok {
			p.ops = append(p.ops, planOp{code: code, off: off})
			continue
		}
		switch ft.Kind() {
		case reflect.Struct:
			p.addStruct(ft, off)
		case reflect.Slice:
			if code, ok := scalarCode(ft.Elem().Kind(), ft.Elem().Size()); ok && code != opString {
				p.ops = append(p.ops, planOp{
					code: opSliceScalar, elem: code, off: off, elemSize: ft.Elem().Size(),
				})
			} else {
				p.ops = append(p.ops, planOp{code: opReflect, off: off, ft: ft})
			}
		case reflect.Pointer:
			if ft.Implements(resumableType) {
				// Mirror the reflective walk's split: exported sub-frames
				// go through the full encoder (custom encoders honored),
				// unexported ones through the plain field walk.
				if f.IsExported() {
					p.ops = append(p.ops, planOp{code: opPtrFrame, off: off, ft: ft})
				} else {
					p.ops = append(p.ops, planOp{
						code: opPtrFrameWalk, off: off, ft: ft, sub: planFor(ft.Elem()),
					})
				}
			} else {
				p.ops = append(p.ops, planOp{code: opPtrOther, off: off})
			}
		case reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer:
			p.ops = append(p.ops, planOp{code: opOpaque, off: off})
		default: // interfaces, arrays, slices of structs, ...
			p.ops = append(p.ops, planOp{code: opReflect, off: off, ft: ft})
		}
	}
}

type sliceHeader struct {
	data unsafe.Pointer
	len  int
	cap  int
}

// append replays the plan against the struct at base.
func (p *plan) append(dst []byte, base unsafe.Pointer) []byte {
	for i := range p.ops {
		op := &p.ops[i]
		fp := unsafe.Add(base, op.off)
		switch op.code {
		case opSliceScalar:
			h := (*sliceHeader)(fp)
			dst = binary.AppendUvarint(dst, uint64(h.len))
			for j := 0; j < h.len; j++ {
				dst = appendScalar(dst, op.elem, unsafe.Add(h.data, uintptr(j)*op.elemSize))
			}
		case opPtrFrame:
			ptr := *(*unsafe.Pointer)(fp)
			if ptr == nil {
				dst = append(dst, tagNilPtr)
				break
			}
			dst = AppendFrameState(dst, reflect.NewAt(op.ft.Elem(), ptr).Interface().(Resumable))
		case opPtrFrameWalk:
			ptr := *(*unsafe.Pointer)(fp)
			if ptr == nil {
				dst = append(dst, tagNilPtr)
				break
			}
			dst = append(dst, tagSubWalk)
			dst = appendTypeName(dst, op.ft.Elem())
			dst = op.sub.append(dst, ptr)
		case opPtrOther:
			if *(*unsafe.Pointer)(fp) == nil {
				dst = append(dst, tagNilPtr)
			} else {
				dst = append(dst, tagPtr)
			}
		case opOpaque:
			dst = append(dst, tagOpaque)
		case opReflect:
			dst = appendCanonicalValue(dst, reflect.NewAt(op.ft, fp).Elem())
		default:
			dst = appendScalar(dst, op.code, fp)
		}
	}
	return dst
}

func appendScalar(dst []byte, code uint8, p unsafe.Pointer) []byte {
	switch code {
	case opBool:
		if *(*bool)(p) {
			return append(dst, 1)
		}
		return append(dst, 0)
	case opInt8:
		return binary.AppendVarint(dst, int64(*(*int8)(p)))
	case opInt16:
		return binary.AppendVarint(dst, int64(*(*int16)(p)))
	case opInt32:
		return binary.AppendVarint(dst, int64(*(*int32)(p)))
	case opInt64:
		return binary.AppendVarint(dst, *(*int64)(p))
	case opUint8:
		return binary.AppendUvarint(dst, uint64(*(*uint8)(p)))
	case opUint16:
		return binary.AppendUvarint(dst, uint64(*(*uint16)(p)))
	case opUint32:
		return binary.AppendUvarint(dst, uint64(*(*uint32)(p)))
	case opUint64:
		return binary.AppendUvarint(dst, *(*uint64)(p))
	case opFloat32:
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], *(*uint32)(p))
		return append(dst, b[:]...)
	case opFloat64:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], *(*uint64)(p))
		return append(dst, b[:]...)
	case opString:
		s := *(*string)(p)
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		return append(dst, s...)
	}
	panic("memsim: unknown scalar code")
}

// appendCanonicalValue is the reflective walk: the planned walk's
// fallback for fields it has no op for (interfaces, arrays, slices of
// strings or composites), and the oracle the planned walk is tested
// against. Struct fields are walked in declaration order (including
// unexported fields, which is where frames keep their state), with scalar
// kinds read through reflect's value accessors so no Interface() call —
// forbidden on unexported fields — is needed. Exported sub-frames go
// through AppendFrameState so a StateAppender is honored; unexported ones
// fall back to the plain walk (frames needing more must implement
// StateAppender at the level the engines see).
func appendCanonicalValue(dst []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(dst, 1)
		}
		return append(dst, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(dst, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return binary.AppendUvarint(dst, v.Uint())
	case reflect.Float32, reflect.Float64:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(floatBits(v.Float())))
		return append(dst, b[:]...)
	case reflect.String:
		s := v.String()
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		return append(dst, s...)
	case reflect.Slice, reflect.Array:
		dst = binary.AppendUvarint(dst, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			dst = appendCanonicalValue(dst, v.Index(i))
		}
		return dst
	case reflect.Struct:
		dst = append(dst, tagStruct)
		for i := 0; i < v.NumField(); i++ {
			dst = appendCanonicalValue(dst, v.Field(i))
		}
		return append(dst, tagEnd)
	case reflect.Pointer:
		if v.IsNil() {
			return append(dst, tagNilPtr)
		}
		if v.Type().Implements(resumableType) {
			if v.CanInterface() {
				return AppendFrameState(dst, v.Interface().(Resumable))
			}
			dst = append(dst, tagSubWalk)
			dst = appendTypeName(dst, v.Type().Elem())
			return appendCanonicalValue(dst, v.Elem())
		}
		return append(dst, tagPtr)
	case reflect.Interface:
		if v.IsNil() {
			return append(dst, tagNilPtr)
		}
		return appendCanonicalValue(dst, v.Elem())
	default:
		// chan, func, map and unsafe pointers are outside the frame
		// discipline: constant per field type.
		return append(dst, tagOpaque)
	}
}

func floatBits(f float64) uint64 {
	return *(*uint64)(unsafe.Pointer(&f))
}

// FNV-128a constants, mirroring hash/fnv's 128-bit variant.
const (
	fnvPrime128Lower = 0x13b
	fnvPrime128Shift = 24
	fnvOffset128Low  = 0x62b821756295c58d
	fnvOffset128High = 0x6c62272e07bb0142
)

// HashKey128 is FNV-128a over b, inlined so the per-node key hash skips
// the hash.Hash interface round trip (Reset, Write dispatch, Sum copy-out)
// of hash/fnv. It produces the exact digest of fnv.New128a — the
// stateKeyLegacy oracles use the stdlib — with the big-endian byte order
// of Sum.
func HashKey128(b []byte) [16]byte {
	lo, hi := uint64(fnvOffset128Low), uint64(fnvOffset128High)
	for _, c := range b {
		lo ^= uint64(c)
		// Multiply the 128-bit state by the 128-bit FNV prime
		// (1<<88 + 1<<8 + 0x3b), tracking the low 128 bits.
		h, l := bits.Mul64(lo, fnvPrime128Lower)
		h += lo << fnvPrime128Shift
		h += hi * fnvPrime128Lower
		lo, hi = l, h
	}
	var key [16]byte
	binary.BigEndian.PutUint64(key[:8], hi)
	binary.BigEndian.PutUint64(key[8:], lo)
	return key
}
