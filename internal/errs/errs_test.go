package errs_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/errs"
	"repro/internal/harness"
)

// TestClassify: every constructor yields its class, wrapping preserves
// the chain for errors.Is/As, and the harness sentinels classify without
// any wrapping at all.
func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want errs.Class
		code string
	}{
		{"failure", errs.Failure(errs.CodeNotFound, "job j9"), errs.ClassFailure, errs.CodeNotFound},
		{"failuref", errs.Failuref(errs.CodeInvalid, "depth %d", -1), errs.ClassFailure, errs.CodeInvalid},
		{"defect", errs.Defectf("witness replays to %d", 3), errs.ClassDefect, ""},
		{"interrupt", errs.Interrupted("stopped between units"), errs.ClassInterrupt, ""},
		{"wrapped failure", fmt.Errorf("outer: %w", errs.Failure(errs.CodeConflict, "already running")), errs.ClassFailure, errs.CodeConflict},
		{"harness budget", fmt.Errorf("run: %w", harness.ErrBudget), errs.ClassFailure, errs.CodeBudget},
		{"harness interrupt", fmt.Errorf("run: %w", harness.ErrInterrupted), errs.ClassInterrupt, ""},
		{"context canceled", context.Canceled, errs.ClassInterrupt, ""},
		{"deadline", context.DeadlineExceeded, errs.ClassInterrupt, ""},
		{"plain", errors.New("huh"), errs.ClassUnknown, ""},
		{"nil", nil, errs.ClassUnknown, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := errs.Classify(tc.err); got != tc.want {
				t.Fatalf("Classify = %v, want %v", got, tc.want)
			}
			if got := errs.CodeOf(tc.err); got != tc.code {
				t.Fatalf("CodeOf = %q, want %q", got, tc.code)
			}
		})
	}
}

// TestInterruptUnwrapsToCanceled: the xgx contract — an Interrupt
// satisfies errors.Is(err, context.Canceled) so stdlib-aware callers need
// no taxonomy knowledge.
func TestInterruptUnwrapsToCanceled(t *testing.T) {
	err := fmt.Errorf("search: %w", errs.Interrupted("stop requested"))
	if !errors.Is(err, context.Canceled) {
		t.Fatal("Interrupted does not unwrap to context.Canceled")
	}
	if !errs.IsInterrupt(err) {
		t.Fatal("IsInterrupt is false on a wrapped Interrupted")
	}
}

// TestWrapKeepsSentinel: wrapping into the taxonomy must not break
// errors.Is on the original sentinel — the interop rule that lets the
// harness sentinels gain a class without breaking existing callers.
func TestWrapKeepsSentinel(t *testing.T) {
	err := errs.Wrap(harness.ErrBudget, errs.ClassFailure, errs.CodeBudget, "sweep truncated")
	if !errors.Is(err, harness.ErrBudget) {
		t.Fatal("wrapped sentinel no longer matches errors.Is")
	}
	if errs.Classify(err) != errs.ClassFailure || errs.CodeOf(err) != errs.CodeBudget {
		t.Fatalf("wrap lost class or code: %v / %q", errs.Classify(err), errs.CodeOf(err))
	}
	if errs.Wrap(nil, errs.ClassFailure, "", "x") != nil {
		t.Fatal("Wrap(nil) is not nil")
	}
}

// TestHTTPStatus: the one policy table the service surface depends on.
func TestHTTPStatus(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{errs.Failure(errs.CodeInvalid, "x"), http.StatusBadRequest},
		{errs.Failure(errs.CodeNotFound, "x"), http.StatusNotFound},
		{errs.Failure(errs.CodeConflict, "x"), http.StatusConflict},
		{errs.Failure(errs.CodeTooLarge, "x"), http.StatusRequestEntityTooLarge},
		{errs.Failure(errs.CodeUnavailable, "x"), http.StatusServiceUnavailable},
		{errs.Failure("something_else", "x"), http.StatusBadRequest},
		{errs.Defectf("x"), http.StatusInternalServerError},
		{errs.Interrupted("x"), http.StatusServiceUnavailable},
		{errors.New("plain"), http.StatusInternalServerError},
		{fmt.Errorf("w: %w", harness.ErrBudget), http.StatusBadRequest},
		{fmt.Errorf("w: %w", harness.ErrInterrupted), http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		if got := errs.HTTPStatus(tc.err); got != tc.want {
			t.Fatalf("HTTPStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
