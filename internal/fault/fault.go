// Package fault is a deterministic fault-injection registry for exercising
// the flow's failure paths in tests. Injection points are compiled into the
// entry points of the heavyweight engines (route, sta, place) and the
// service executor; each point calls Hit, which is a no-op (a single atomic
// pointer load) unless a plan has been armed with Arm.
//
// Injection is deterministic: rules fire on call counters (every Nth call
// at a point) or on a seeded hash of the call counter (a fixed fraction of
// calls), never on wall-clock time or global randomness, so a test that
// arms a plan sees the same failures on every run with the same schedule
// of calls.
//
// Points hosted in functions without an error return (such as PlaceECO)
// cannot surface an injected error, so any rule that fires there panics
// with the *Error as the panic value; the flow's per-stage panic
// containment (internal/core) converts it into a classified error. Rules
// with Panic set behave that way at every point.
//
// The registry is process-global on purpose — the engines must not thread
// a test-only dependency through their APIs — so tests that arm plans must
// not run in parallel with each other and should register Disarm as a
// cleanup.
package fault

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Point identifies one compiled-in injection site.
type Point string

// The compiled-in injection points.
const (
	// Route fires at the top of route.Route.
	Route Point = "route"
	// STA fires at the top of sta.Analyze.
	STA Point = "sta"
	// PlaceECO fires at the top of place.ECO. The host has no error
	// return, so any rule firing here panics (see the package comment).
	PlaceECO Point = "place.eco"
	// Service fires at the top of the service manager's job executor,
	// outside the flow's per-stage panic containment.
	Service Point = "service.execute"
	// DurableAppend fires inside durable.Log.Append, after the record is
	// encoded but before any byte reaches the WAL.
	DurableAppend Point = "durable.append"
	// DurableSnapshot fires inside durable.Log.Snapshot, after the new
	// snapshot is durably published but before the WAL is truncated.
	DurableSnapshot Point = "durable.snapshot"
)

// Rule decides which calls at a point fail. Exactly one of Every or Rate
// selects the schedule.
type Rule struct {
	// Every fires on every Nth call (1 = every call). 0 disables the
	// counter schedule.
	Every int
	// Rate fires on approximately this fraction of calls in (0,1],
	// selected by a seeded hash of the call counter (deterministic for a
	// given Seed). Ignored when Every is set.
	Rate float64
	// Seed perturbs the Rate schedule.
	Seed int64
	// After exempts the first After calls at the point.
	After int
	// Limit caps the number of injections fired (0 = unlimited).
	Limit int
	// Panic makes the injection panic with the *Error instead of
	// returning it.
	Panic bool
	// Crash makes the injection SIGKILL the process instead of returning
	// an error: the closest deterministic stand-in for an OOM kill or
	// power loss, un-catchable by any defer. Used by the kill-and-restart
	// crash harness; see ArmCrashFromEnv.
	Crash bool
	// Msg is appended to the error text when non-empty.
	Msg string
}

type pointState struct {
	rule  Rule
	calls atomic.Uint64
	fired atomic.Uint64
}

type plan struct {
	points map[Point]*pointState
}

var active atomic.Pointer[plan]

// Arm installs a plan, replacing any armed one. Counters start at zero.
func Arm(rules map[Point]Rule) {
	p := &plan{points: make(map[Point]*pointState, len(rules))}
	for pt, r := range rules {
		p.points[pt] = &pointState{rule: r}
	}
	active.Store(p)
}

// Disarm removes the armed plan; every Hit becomes a no-op again.
func Disarm() { active.Store(nil) }

// Calls returns the number of Hit calls observed at p since Arm (0 when
// nothing is armed or the point has no rule).
func Calls(p Point) uint64 {
	if pl := active.Load(); pl != nil {
		if st := pl.points[p]; st != nil {
			return st.calls.Load()
		}
	}
	return 0
}

// Fired returns the number of injections fired at p since Arm.
func Fired(p Point) uint64 {
	if pl := active.Load(); pl != nil {
		if st := pl.points[p]; st != nil {
			return st.fired.Load()
		}
	}
	return 0
}

// Error is one injected failure.
type Error struct {
	// Point is the site that fired; Call its 1-based call counter value.
	Point Point
	Call  uint64

	msg string
}

// Error implements the error interface.
func (e *Error) Error() string {
	s := fmt.Sprintf("fault: injected failure at %s (call %d)", e.Point, e.Call)
	if e.msg != "" {
		s += ": " + e.msg
	}
	return s
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed hash used
// to turn (seed, counter) into a uniform decision for Rate rules.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hit is the injection call compiled into each point. It returns nil when
// no plan is armed, no rule covers p, or the rule does not fire on this
// call; otherwise it returns (or panics with, for Panic rules) an *Error.
func Hit(p Point) error {
	pl := active.Load()
	if pl == nil {
		return nil
	}
	st := pl.points[p]
	if st == nil {
		return nil
	}
	n := st.calls.Add(1)
	r := st.rule
	if n <= uint64(r.After) {
		return nil
	}
	fire := false
	switch {
	case r.Every > 0:
		fire = (n-uint64(r.After))%uint64(r.Every) == 0
	case r.Rate >= 1:
		fire = true
	case r.Rate > 0:
		// r.Rate < 1 keeps the product inside uint64 range.
		threshold := uint64(r.Rate * float64(math.MaxUint64))
		fire = splitmix64(uint64(r.Seed)+n) <= threshold
	}
	if !fire {
		return nil
	}
	if r.Limit > 0 {
		if st.fired.Add(1) > uint64(r.Limit) {
			st.fired.Add(^uint64(0)) // undo: the cap was already reached
			return nil
		}
	} else {
		st.fired.Add(1)
	}
	err := &Error{Point: p, Call: n, msg: r.Msg}
	if r.Crash {
		crashNow()
	}
	if r.Panic {
		panic(err)
	}
	return err
}
