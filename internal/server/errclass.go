package server

import (
	"context"
	"errors"
	"net/http"

	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/sim/timing"
)

// ErrClass is the server's structured error taxonomy: every request
// outcome — success included — maps into exactly one class, surfaced
// in the JSON response body, the X-Hbserved-Class header, and the
// /statusz counters. The classes are deliberately few: a client (or
// an operator's alert rule) decides retry/fix/escalate from the class
// alone, without parsing error strings.
type ErrClass string

const (
	// ClassOK is a fully successful compile/simulate.
	ClassOK ErrClass = "ok"
	// ClassInvalidInput covers malformed requests: JSON that does not
	// parse, tl source that fails the front end, unknown workloads,
	// orderings, or simulators, argument-arity mismatches. Retrying
	// the same request can never succeed.
	ClassInvalidInput ErrClass = "invalid-input"
	// ClassDegraded is a partial success: the compile finished and
	// the simulation ran, but one or more functions were rolled back
	// to basic-block form by the mid end's per-function guard. The
	// metrics are real but the measured program is not the fully
	// transformed one.
	ClassDegraded ErrClass = "degraded"
	// ClassQuarantined marks a request refused because the engine
	// quarantined the job at its simulator watchdog trip: the input is
	// structurally stuck and retrying it is pointless until the server
	// restarts.
	ClassQuarantined ErrClass = "quarantined"
	// ClassTimeout covers deadline and cancellation outcomes: the
	// per-request deadline expired (propagated end-to-end through the
	// compiler's checkpoints and the simulators' block polls), the
	// client disconnected, or a drain hard-stop canceled the job.
	ClassTimeout ErrClass = "timeout"
	// ClassShed marks requests the server refused without running
	// them to protect itself: admission queue full, queue age past
	// budget, heap above the watermark, or drain in progress. Always
	// safe to retry after the advertised Retry-After.
	ClassShed ErrClass = "shed"
	// ClassInternal is everything else: phase panics, the watchdog
	// abort that quarantines a job, simulator errors on well-formed
	// input. These are server-side bugs by definition.
	ClassInternal ErrClass = "internal"
)

// Classes lists every terminal class (the /statusz counter order).
var Classes = []ErrClass{
	ClassOK, ClassInvalidInput, ClassDegraded, ClassQuarantined,
	ClassTimeout, ClassShed, ClassInternal,
}

// Valid reports whether c is one of the defined classes.
func (c ErrClass) Valid() bool {
	for _, k := range Classes {
		if c == k {
			return true
		}
	}
	return false
}

// HTTPStatus maps the class to its response status code.
func (c ErrClass) HTTPStatus() int {
	switch c {
	case ClassOK, ClassDegraded:
		return http.StatusOK
	case ClassInvalidInput:
		return http.StatusBadRequest
	case ClassQuarantined:
		return http.StatusUnprocessableEntity
	case ClassTimeout:
		return http.StatusGatewayTimeout
	case ClassShed:
		return http.StatusTooManyRequests
	default:
		return http.StatusInternalServerError
	}
}

// Classify maps a finished engine result into the taxonomy. Every
// engine error lands in exactly one class; an errorless result is ok
// unless the compile degraded functions.
func Classify(res engine.Result) ErrClass {
	err := res.Err
	if err == nil {
		if len(res.Metrics.Degraded) > 0 {
			return ClassDegraded
		}
		return ClassOK
	}
	var lerr *lang.Error
	switch {
	case errors.Is(err, engine.ErrQuarantined):
		return ClassQuarantined
	case errors.Is(err, engine.ErrTimeout),
		errors.Is(err, engine.ErrCanceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return ClassTimeout
	case errors.As(err, &lerr):
		// Front-end diagnostics that slipped past pre-validation
		// (e.g. a named workload with a stale source) are still the
		// input's fault, not the server's.
		return ClassInvalidInput
	case errors.Is(err, timing.ErrWatchdog), errors.Is(err, engine.ErrPanic):
		return ClassInternal
	}
	return ClassInternal
}
