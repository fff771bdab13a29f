package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

// Stage identifies the flow stage a failure happened in. Stages mirror the
// evaluation pipeline (run and evaluate in flow.go): parameter validation,
// the anti-Trojan placement operator, routing, timing, power, security
// assessment and DRC.
type Stage string

// The flow's stages, in execution order.
const (
	StageValidate Stage = "validate"
	StageOperator Stage = "operator"
	StageRoute    Stage = "route"
	StageTiming   Stage = "timing"
	StagePower    Stage = "power"
	StageSecurity Stage = "security"
	StageDRC      Stage = "drc"
)

// ErrClass is the failure taxonomy used by callers to decide between
// degradation and abort.
type ErrClass string

const (
	// ClassPermanent failures are deterministic for the input: retrying
	// the same evaluation fails again (bad parameters, unroutable design).
	ClassPermanent ErrClass = "permanent"
	// ClassPanic failures are panics recovered inside a flow stage.
	ClassPanic ErrClass = "panic"
	// ClassCanceled marks context cancellation or deadline expiry — not a
	// flow failure at all; callers propagate it instead of degrading.
	ClassCanceled ErrClass = "canceled"
)

// FlowError tags a stage failure with its class. The wrapped error is
// reachable through errors.Is/As.
type FlowError struct {
	Stage Stage
	Class ErrClass
	Err   error
}

// Error implements the error interface.
func (e *FlowError) Error() string {
	return fmt.Sprintf("core: %s stage (%s): %v", e.Stage, e.Class, e.Err)
}

// Unwrap exposes the underlying stage error.
func (e *FlowError) Unwrap() error { return e.Err }

// FlowPanicError is a panic recovered inside a flow stage, carrying the
// stage, the panic value and the goroutine stack captured at recovery.
type FlowPanicError struct {
	Stage Stage
	Value any
	Stack []byte
}

// Error implements the error interface.
func (e *FlowPanicError) Error() string {
	return fmt.Sprintf("core: panic in %s stage: %v", e.Stage, e.Value)
}

// Unwrap exposes a wrapped error panic value (panic(err)), so errors.Is/As
// see through recovered error panics.
func (e *FlowPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Classify maps any error onto the taxonomy. Stage-tagged errors keep the
// class assigned at the stage boundary; context errors are ClassCanceled;
// everything else is permanent.
func Classify(err error) ErrClass {
	if err == nil {
		return ""
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ClassCanceled
	}
	var pe *FlowPanicError
	if errors.As(err, &pe) {
		return ClassPanic
	}
	var fe *FlowError
	if errors.As(err, &fe) {
		return fe.Class
	}
	return ClassPermanent
}

// StageOf returns the flow stage an error is tagged with ("" if untagged).
func StageOf(err error) Stage {
	var pe *FlowPanicError
	if errors.As(err, &pe) {
		return pe.Stage
	}
	var fe *FlowError
	if errors.As(err, &fe) {
		return fe.Stage
	}
	return ""
}

// runStage executes one flow stage with panic containment and class
// tagging: a panic inside f becomes a *FlowPanicError, a returned error is
// wrapped in a *FlowError carrying the stage and its class. Context errors
// and already-tagged errors pass through untouched so cancellation checks
// and inner stage tags survive nesting.
func runStage(stage Stage, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &FlowPanicError{Stage: stage, Value: r, Stack: debug.Stack()}
		}
	}()
	serr := f()
	switch {
	case serr == nil:
		return nil
	case errors.Is(serr, context.Canceled), errors.Is(serr, context.DeadlineExceeded):
		return serr
	default:
		var fe *FlowError
		var pe *FlowPanicError
		if errors.As(serr, &fe) || errors.As(serr, &pe) {
			return serr
		}
		return &FlowError{Stage: stage, Class: Classify(serr), Err: serr}
	}
}
