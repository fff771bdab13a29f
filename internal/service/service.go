// Package service turns the one-shot GDSII-Guard library flows into a
// long-running hardening service: a job manager with a bounded FIFO queue
// and a fixed worker pool executes harden, explore and attack jobs
// against cached designs, with per-job context cancellation, timeouts,
// and an in-memory result store with retention limits. The HTTP front-end
// (Handler, served by cmd/guardd) exposes the manager as a JSON API.
//
// Security-closure flows run for minutes per design on realistic inputs,
// so the service treats every flow invocation as an asynchronous job:
// submission is cheap and bounded, execution is concurrent up to the
// worker-pool size, and clients poll (or cancel) by job ID.
package service

import (
	"fmt"
	"sync"
	"time"

	"gdsiiguard"
	"gdsiiguard/internal/core"
	"gdsiiguard/internal/durable"
)

// Kind selects what a job runs.
type Kind string

// The three job kinds map onto the public library operations.
const (
	// KindHarden applies one flow configuration (Design.HardenCtx).
	KindHarden Kind = "harden"
	// KindExplore runs the NSGA-II exploration (Design.ExploreCtx).
	KindExplore Kind = "explore"
	// KindAttack simulates a Trojan insertion on the unhardened baseline.
	KindAttack Kind = "attack"
)

// State is a job's lifecycle state. Transitions are
// queued → running → done | failed | cancelled, plus queued → cancelled
// for jobs cancelled before a worker picks them up.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Spec describes one job submission. Exactly one of Benchmark or DEF
// selects the design.
type Spec struct {
	Kind Kind
	// Benchmark names a built-in benchmark design.
	Benchmark string
	// DEF is an uploaded placed DEF layout (alternative to Benchmark);
	// ClockPS and Assets configure its constraints and critical instances.
	DEF     []byte
	ClockPS float64
	Assets  []string
	// Params configures a harden job (nil: default flow).
	Params *gdsiiguard.FlowParams
	// Explore configures an explore job.
	Explore gdsiiguard.ExploreOptions
	// Timeout overrides the manager's default per-job timeout (0: default).
	Timeout time.Duration
}

// Upper bounds on a client's explore sizes. The optimizer starts
// Parallelism evaluation goroutines every generation and holds PopSize
// individuals per generation, so an unbounded value is a request for
// unbounded memory.
const (
	maxPopSize     = 1024
	maxGenerations = 4096
	maxParallelism = 1024
)

// Validate checks the spec before it is queued.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindHarden, KindExplore, KindAttack:
	default:
		return fmt.Errorf("service: unknown job kind %q (want %q, %q or %q)",
			s.Kind, KindHarden, KindExplore, KindAttack)
	}
	if (s.Benchmark == "") == (len(s.DEF) == 0) {
		return fmt.Errorf("service: exactly one of Benchmark or DEF must be set")
	}
	if len(s.DEF) > 0 && s.ClockPS <= 0 {
		return fmt.Errorf("service: DEF jobs need a positive ClockPS")
	}
	if s.Timeout < 0 {
		return fmt.Errorf("service: negative timeout")
	}
	if err := s.Params.Validate(); err != nil {
		return fmt.Errorf("service: params: %w", err)
	}
	for _, b := range []struct {
		name     string
		val, max int
	}{
		{"pop_size", s.Explore.PopSize, maxPopSize},
		{"generations", s.Explore.Generations, maxGenerations},
		{"parallelism", s.Explore.Parallelism, maxParallelism},
	} {
		if b.val < 0 || b.val > b.max {
			return fmt.Errorf("service: explore %s %d out of range [0, %d]", b.name, b.val, b.max)
		}
	}
	return nil
}

// Result is the payload of a finished job. Fields are set according to the
// job kind.
type Result struct {
	// Baseline is the design's unhardened metrics (all kinds).
	Baseline gdsiiguard.Metrics
	// Hardened is the hardened layout's metrics (harden jobs).
	Hardened *gdsiiguard.Metrics
	// Exploration is the explored Pareto front (explore jobs).
	Exploration *gdsiiguard.Exploration
	// Attack is the simulated insertion outcome (attack jobs).
	Attack *gdsiiguard.AttackResult
	// CacheHit reports whether the design came from the design cache.
	CacheHit bool
}

// Job is one queued or executed unit of work. All accessors are safe for
// concurrent use.
type Job struct {
	ID   string
	Spec Spec

	// wal is the job's durable log (nil when the manager has no store).
	wal *durable.Log

	mu        sync.Mutex
	state     State
	err       error
	result    *Result
	hardened  *gdsiiguard.Hardened
	cancel    func()
	attempts  int
	submitted time.Time
	started   time.Time
	finished  time.Time
	// done closes once the job is terminal AND retired: its terminal
	// state counted and persisted (see Manager.retire), so a client woken
	// by Wait or Done observes both.
	done    chan struct{}
	retired bool
	// resumeScope/resume hold the latest exploration checkpoint (from a
	// recovered log or emitted live), so a restart continues the run
	// instead of starting over. ckpts counts checkpoints since the last
	// log compaction; userCancelled distinguishes a user's cancel from a
	// shutdown drain when the terminal state is persisted.
	resumeScope   string
	resume        []byte
	ckpts         int
	userCancelled bool
}

func newJob(id string, spec Spec, now time.Time) *Job {
	return &Job{
		ID:        id,
		Spec:      spec,
		state:     StateQueued,
		submitted: now,
		done:      make(chan struct{}),
	}
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the failure cause for failed jobs (nil otherwise).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Attempts returns how many execution attempts the job has consumed in
// this process: 0 while queued, 1 once it runs. A failed execution is not
// re-run; a job re-queued after a crash restart counts from 0 again.
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// noteAttempt records the start of one execution attempt.
func (j *Job) noteAttempt() {
	j.mu.Lock()
	j.attempts++
	j.mu.Unlock()
	jobAttempts.Inc()
}

// Result returns the finished job's payload (nil until done).
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Hardened returns the hardened layout of a finished harden job (nil
// otherwise), for DEF/GDSII export.
func (j *Job) Hardened() *gdsiiguard.Hardened {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.hardened
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job reaches a terminal state and returns it.
func (j *Job) Wait() State {
	<-j.done
	return j.State()
}

// Snapshot is a consistent copy of the job's observable state, used by the
// HTTP layer.
type Snapshot struct {
	ID    string
	Kind  Kind
	State State
	Error string
	// ErrorClass is the core error taxonomy class of a failed job
	// ("permanent" or "panic"; empty otherwise).
	ErrorClass string
	// Attempts counts execution attempts (see Job.Attempts).
	Attempts  int
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	Result    *Result
}

// Snapshot returns a consistent copy of the job's observable state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:        j.ID,
		Kind:      j.Spec.Kind,
		State:     j.state,
		Attempts:  j.attempts,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
		Result:    j.result,
	}
	if j.err != nil {
		s.Error = j.err.Error()
		s.ErrorClass = string(core.Classify(j.err))
	}
	return s
}

// start moves a queued job to running; it reports false if the job was
// cancelled while queued (the worker then skips it).
func (j *Job) start(cancel func(), now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = now
	j.cancel = cancel
	return true
}

// finish records the terminal state exactly once. It does not close done:
// the manager does that when it retires the job.
func (j *Job) finish(state State, res *Result, h *gdsiiguard.Hardened, err error, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.result = res
	j.hardened = h
	j.err = err
	j.finished = now
	if j.cancel != nil {
		j.cancel()
		j.cancel = nil
	}
}

// claimRetire reports whether the caller is the first to retire the job. A
// queued job a client cancels is retired by Manager.Cancel, and offered
// again by the worker that later dequeues it.
func (j *Job) claimRetire() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.retired {
		return false
	}
	j.retired = true
	return true
}

// release closes done, waking Wait and Done.
func (j *Job) release() { close(j.done) }

// setCheckpoint records the latest exploration checkpoint blob.
func (j *Job) setCheckpoint(scope string, blob []byte) {
	j.mu.Lock()
	j.resumeScope, j.resume = scope, blob
	j.mu.Unlock()
}

// resumeState returns the latest checkpoint's scope and blob (empty when
// the job has never checkpointed).
func (j *Job) resumeState() (string, []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resumeScope, j.resume
}

// bumpCheckpointCount increments and returns the persisted-checkpoint
// counter driving periodic log compaction.
func (j *Job) bumpCheckpointCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.ckpts++
	return j.ckpts
}

// wasUserCancelled reports whether a client (not a shutdown drain)
// requested the job's cancellation.
func (j *Job) wasUserCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.userCancelled
}

// requestCancel cancels a queued job immediately, reporting true (the
// caller then retires it), or signals a running job's context; it is a
// no-op on terminal jobs.
func (j *Job) requestCancel(now time.Time) bool {
	j.mu.Lock()
	j.userCancelled = true
	if j.state == StateQueued {
		j.state = StateCancelled
		j.finished = now
		j.mu.Unlock()
		return true
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return false
}
