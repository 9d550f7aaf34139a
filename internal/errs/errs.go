// Package errs is the repository's error taxonomy — the xgx-error shape
// (Failure vs Defect vs Interrupt) with perfect stdlib interop and no
// policy baked into the core. A Failure is an expected domain or
// infrastructure error (bad input, missing job, stale checkpoint); a
// Defect is a programmer bug — an internal invariant the engines promise
// can never break (a witness that does not replay, a memo entry that
// disagrees with recomputation); an Interrupt is a cancellation and
// unwraps to context.Canceled so `errors.Is(err, context.Canceled)`
// holds. Classify also recognizes the two pre-existing harness sentinels
// (harness.ErrBudget is a Failure, harness.ErrInterrupted an Interrupt),
// so a service surface can map any error in the repository to an HTTP
// status without string matching.
package errs

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/harness"
)

// Class partitions every error into the three taxonomy kinds.
type Class uint8

// The taxonomy classes. ClassUnknown is what Classify reports for plain
// errors that carry no taxonomy information; policy layers should treat
// it like a Defect (an unclassified error is a missing classification).
const (
	ClassUnknown Class = iota
	ClassFailure
	ClassDefect
	ClassInterrupt
)

// String names the class for logs and reports.
func (c Class) String() string {
	switch c {
	case ClassFailure:
		return "failure"
	case ClassDefect:
		return "defect"
	case ClassInterrupt:
		return "interrupt"
	default:
		return "unknown"
	}
}

// Error is one classified error: a class, a machine-readable code (for
// Failures: "invalid", "not_found", "conflict", "unavailable", ...), a
// message, and an optional wrapped cause that errors.Is/As traverse.
type Error struct {
	class Class
	code  string
	msg   string
	cause error
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.cause != nil && e.msg != "" {
		return e.msg + ": " + e.cause.Error()
	}
	if e.cause != nil {
		return e.cause.Error()
	}
	return e.msg
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.cause }

// Class reports the taxonomy class.
func (e *Error) Class() Class { return e.class }

// Code reports the machine-readable code ("" when none was attached).
func (e *Error) Code() string { return e.code }

// Failure codes used across the repository. Free-form codes are allowed;
// these are the ones HTTPStatus maps specially.
const (
	CodeInvalid     = "invalid"     // malformed or rejected input
	CodeNotFound    = "not_found"   // named thing does not exist
	CodeConflict    = "conflict"    // state does not admit the operation
	CodeUnavailable = "unavailable" // resource temporarily unavailable
	CodeBudget      = "budget"      // a step/work budget was exhausted
	CodeTooLarge    = "too_large"   // input larger than the surface accepts
)

// Failure returns a new expected error with a machine-readable code.
func Failure(code, msg string) *Error {
	return &Error{class: ClassFailure, code: code, msg: msg}
}

// Failuref is Failure with formatting.
func Failuref(code, format string, args ...any) *Error {
	return &Error{class: ClassFailure, code: code, msg: fmt.Sprintf(format, args...)}
}

// Defectf returns a new programmer-bug error: an internal invariant
// violation that should page, not 400.
func Defectf(format string, args ...any) *Error {
	return &Error{class: ClassDefect, msg: fmt.Sprintf(format, args...)}
}

// Interrupted returns a cancellation error that unwraps to
// context.Canceled, so both the taxonomy and the stdlib sentinel match.
func Interrupted(msg string) *Error {
	return &Error{class: ClassInterrupt, msg: msg, cause: context.Canceled}
}

// Wrap classifies an existing error, keeping it on the unwrap chain. A
// nil err wraps to nil.
func Wrap(err error, class Class, code, msg string) error {
	if err == nil {
		return nil
	}
	return &Error{class: class, code: code, msg: msg, cause: err}
}

// Classify walks err's unwrap graph and reports its taxonomy class:
// the outermost *Error's class if one is present; otherwise Interrupt
// for context.Canceled, context.DeadlineExceeded and the harness
// interrupt sentinel, Failure for the harness budget sentinel, and
// ClassUnknown for everything else.
func Classify(err error) Class {
	if err == nil {
		return ClassUnknown
	}
	var e *Error
	if errors.As(err, &e) {
		return e.class
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, harness.ErrInterrupted) {
		return ClassInterrupt
	}
	if errors.Is(err, harness.ErrBudget) {
		return ClassFailure
	}
	return ClassUnknown
}

// CodeOf reports the machine-readable code of err: the outermost
// *Error's code, or the code the harness sentinels imply ("" otherwise).
func CodeOf(err error) string {
	var e *Error
	if errors.As(err, &e) && e.code != "" {
		return e.code
	}
	if errors.Is(err, harness.ErrBudget) {
		return CodeBudget
	}
	return ""
}

// IsFailure reports whether err classifies as an expected error.
func IsFailure(err error) bool { return Classify(err) == ClassFailure }

// IsDefect reports whether err classifies as a programmer bug.
func IsDefect(err error) bool { return Classify(err) == ClassDefect }

// IsInterrupt reports whether err classifies as a cancellation.
func IsInterrupt(err error) bool { return Classify(err) == ClassInterrupt }

// HTTPStatus maps any error in the repository to an HTTP status code —
// the one translation a JSON service surface needs. Failures map by
// code (invalid→400, not_found→404, conflict→409, too_large→413,
// unavailable→503, anything else→400); Interrupts map to 503 (the work was abandoned,
// retry later or resume); Defects and unclassified errors map to 500.
func HTTPStatus(err error) int {
	switch Classify(err) {
	case ClassFailure:
		switch CodeOf(err) {
		case CodeNotFound:
			return http.StatusNotFound
		case CodeConflict:
			return http.StatusConflict
		case CodeTooLarge:
			return http.StatusRequestEntityTooLarge
		case CodeUnavailable:
			return http.StatusServiceUnavailable
		default:
			return http.StatusBadRequest
		}
	case ClassInterrupt:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}
