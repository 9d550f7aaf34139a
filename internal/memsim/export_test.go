package memsim

import (
	"errors"
	"reflect"
)

// errNoProgram is what the package's test instances return for a call
// kind they have no program for.
var errNoProgram = errors.New("memsim: no program for this call kind")

// AppendFrameStateReflect is AppendFrameState with the planned field walk
// replaced by the reflective one (appendCanonicalValue): the oracle of the
// differential tests in encode_test.go. Custom StateAppender content is
// shared by both, so only the walks are compared.
func AppendFrameStateReflect(dst []byte, r Resumable) []byte {
	if r == nil {
		return append(dst, tagNil)
	}
	dst = append(dst, tagFrame)
	dst = appendTypeName(dst, reflect.TypeOf(r))
	if a, ok := r.(StateAppender); ok {
		return a.AppendState(append(dst, tagCustom))
	}
	v := reflect.ValueOf(r)
	if v.Kind() == reflect.Pointer && !v.IsNil() {
		v = v.Elem()
	}
	return appendCanonicalValue(append(dst, tagWalk), v)
}
