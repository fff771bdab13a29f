package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"gdsiiguard"
	"gdsiiguard/internal/core"
	"gdsiiguard/internal/durable"
	"gdsiiguard/internal/fault"
	"gdsiiguard/internal/obs"
)

// Config sizes the manager. Zero values take defaults.
type Config struct {
	// Workers is the worker-pool size (default runtime.NumCPU()).
	Workers int
	// QueueDepth bounds the FIFO submission queue (default 64); Submit
	// fails with ErrQueueFull beyond it instead of buffering unboundedly.
	QueueDepth int
	// JobTimeout is the default per-job execution timeout
	// (default 15 minutes); Spec.Timeout overrides it per job.
	JobTimeout time.Duration
	// CacheSize is the design-cache capacity in designs (default 8).
	CacheSize int
	// Retention bounds how many finished jobs the result store keeps
	// (default 256); the oldest finished jobs are evicted first.
	Retention int
	// Store, when set, makes jobs durable: specs, state transitions,
	// exploration checkpoints and results are written to a per-job
	// crash-safe WAL, and New replays the store — re-queueing interrupted
	// jobs (explorations resume from their last checkpoint) and restoring
	// finished jobs into the result store.
	Store *durable.Store
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 15 * time.Minute
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 8
	}
	if c.Retention <= 0 {
		c.Retention = 256
	}
	return c
}

// Submission and lookup errors.
var (
	ErrQueueFull    = errors.New("service: job queue full")
	ErrShuttingDown = errors.New("service: manager is shutting down")
	ErrNotFound     = errors.New("service: no such job")
)

// Manager owns the job queue, the worker pool, the design cache and the
// result store. All methods are safe for concurrent use.
type Manager struct {
	cfg   Config
	cache *DesignCache
	queue chan *Job
	store *durable.Store

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // terminal job IDs in retirement order
	seq      uint64
	busy     int
	peakBusy int
	closed   bool
	// panicsRecovered counts panics recovered by workers since start.
	panicsRecovered uint64
}

// New starts a manager with cfg's worker pool running. When cfg.Store is
// set, the store is replayed first: finished jobs re-enter the result
// store and interrupted jobs re-queue (resuming explorations from their
// last durable checkpoint) before any worker runs.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		cache:      NewDesignCache(cfg.CacheSize),
		queue:      make(chan *Job, cfg.QueueDepth),
		store:      cfg.Store,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
	}
	if m.store != nil {
		m.recover()
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit validates and enqueues a job, returning it in StateQueued. It
// fails fast with ErrQueueFull when the queue is at capacity and with
// ErrShuttingDown after Shutdown has begun.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	job, _, err := m.submit(spec)
	return job, err
}

// submit is Submit, also returning the job's snapshot as accepted: taken
// before the job is queued, so a worker picking it up at once cannot move
// it past StateQueued first.
func (m *Manager) submit(spec Spec) (*Job, Snapshot, error) {
	if err := spec.Validate(); err != nil {
		return nil, Snapshot{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, Snapshot{}, ErrShuttingDown
	}
	m.seq++
	job := newJob(fmt.Sprintf("job-%d", m.seq), spec, time.Now())
	if m.store != nil {
		if err := m.persistSubmit(job); err != nil {
			return nil, Snapshot{}, err
		}
	}
	accepted := job.Snapshot()
	select {
	case m.queue <- job:
		m.jobs[job.ID] = job
		jobsSubmitted.With(string(spec.Kind)).Inc()
		obs.Logger().Info("service: job submitted",
			"job", job.ID, "kind", spec.Kind, "queue_depth", len(m.queue))
		return job, accepted, nil
	default:
		if job.wal != nil {
			// The spec record is durable but the job was never accepted:
			// drop the log so a restart does not resurrect a job the
			// client was told to resubmit.
			_ = m.store.Remove(job.ID)
		}
		return nil, Snapshot{}, ErrQueueFull
	}
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return job, nil
}

// Cancel requests cancellation of a job: a queued job is cancelled
// immediately, a running job's context is cancelled (it stops at the
// flow's next cancellation point), and a terminal job is left untouched.
func (m *Manager) Cancel(id string) (*Job, error) {
	job, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	if job.requestCancel(time.Now()) {
		// Cancelled while queued: retire it now, not when a worker
		// reaches it in the queue, so its Wait returns at once.
		m.retire(job)
	}
	return job, nil
}

// Benchmarks lists the built-in designs the service can harden.
func (m *Manager) Benchmarks() []string { return gdsiiguard.Benchmarks() }

// Ready reports whether the manager accepts new submissions: true until
// Shutdown begins, false while draining. Backs GET /v1/readyz, so load
// balancers stop routing to a draining instance while in-flight jobs
// finish.
func (m *Manager) Ready() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.closed
}

// Shutdown stops accepting submissions, lets workers drain queued and
// running jobs, and returns once the pool has exited. If ctx expires
// first, running jobs are hard-cancelled via their contexts and Shutdown
// returns ctx.Err() after the pool exits.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		m.baseCancel()
		<-drained
		return ctx.Err()
	}
}

// Stats is a point-in-time view of the service.
type Stats struct {
	Workers       int
	WorkersBusy   int
	PeakBusy      int
	QueueDepth    int
	QueueCapacity int
	JobsByState   map[State]int
	// PanicsRecovered counts worker-level panics contained since manager
	// start.
	PanicsRecovered uint64
	Cache           CacheStats
}

// Stats reports queue depth, worker occupancy, job-state counts and cache
// effectiveness.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	s := Stats{
		Workers:         m.cfg.Workers,
		WorkersBusy:     m.busy,
		PeakBusy:        m.peakBusy,
		QueueDepth:      len(m.queue),
		QueueCapacity:   m.cfg.QueueDepth,
		JobsByState:     make(map[State]int),
		PanicsRecovered: m.panicsRecovered,
	}
	for _, job := range m.jobs {
		s.JobsByState[job.State()]++
	}
	m.mu.Unlock()
	s.Cache = m.cache.Stats()
	return s
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		m.runJob(job)
		m.retire(job)
	}
}

func (m *Manager) runJob(job *Job) {
	timeout := job.Spec.Timeout
	if timeout <= 0 {
		timeout = m.cfg.JobTimeout
	}
	ctx, cancel := context.WithTimeout(m.baseCtx, timeout)
	defer cancel()
	started := time.Now()
	if !job.start(cancel, started) {
		return // cancelled while queued
	}
	queueWaitSeconds.Observe(started.Sub(job.submitted).Seconds())
	obs.Logger().Info("service: job started",
		"job", job.ID, "kind", job.Spec.Kind,
		"queue_wait", started.Sub(job.submitted))
	m.mu.Lock()
	m.busy++
	if m.busy > m.peakBusy {
		m.peakBusy = m.busy
	}
	m.mu.Unlock()
	workersBusy.Inc()
	workersBusyPeak.SetMax(workersBusy.Peak())
	defer func() {
		m.mu.Lock()
		m.busy--
		m.mu.Unlock()
		workersBusy.Dec()
	}()
	defer execSeconds.With(string(job.Spec.Kind)).ObserveSince(started)

	job.noteAttempt()
	m.persistState(job, StateRunning, job.Attempts(), "")
	res, hardened, err := m.executeSafe(ctx, job)
	now := time.Now()
	switch {
	case err == nil:
		job.finish(StateDone, res, hardened, nil, now)
	case errors.Is(err, context.DeadlineExceeded):
		job.finish(StateFailed, nil, nil,
			fmt.Errorf("service: job timed out after %v", timeout), now)
	case errors.Is(err, context.Canceled):
		job.finish(StateCancelled, nil, nil, nil, now)
	default:
		job.finish(StateFailed, nil, nil, err, now)
	}
}

// executeSafe runs one execution attempt with worker-level panic
// containment: a panic anywhere outside the flow's own stage recovery
// (cache loading, result assembly, the executor itself) fails the job —
// never the process — as a core.ClassPanic error.
func (m *Manager) executeSafe(ctx context.Context, job *Job) (res *Result, h *gdsiiguard.Hardened, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.mu.Lock()
			m.panicsRecovered++
			m.mu.Unlock()
			err = &core.FlowPanicError{Stage: "service", Value: r, Stack: debug.Stack()}
		}
	}()
	if err := fault.Hit(fault.Service); err != nil {
		return nil, nil, err
	}
	return m.execute(ctx, job)
}

func (m *Manager) execute(ctx context.Context, job *Job) (*Result, *gdsiiguard.Hardened, error) {
	d, hit, err := m.cache.Load(job.Spec)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	res := &Result{Baseline: d.Baseline(), CacheHit: hit}
	switch job.Spec.Kind {
	case KindHarden:
		h, err := d.HardenCtx(ctx, job.Spec.Params)
		if err != nil {
			return nil, nil, err
		}
		res.Hardened = &h.Metrics
		return res, h, nil
	case KindExplore:
		// With a store, every exploration checkpoint is persisted, so a
		// re-execution after a restart resumes the exploration instead of
		// restarting it. Without one nothing ever re-executes the job, so
		// no checkpoint is taken at all.
		opt := job.Spec.Explore
		if m.store != nil {
			opt.Checkpoint = func(blob []byte) error {
				return m.persistCheckpoint(job, scopeLocal, blob)
			}
		}
		if scope, blob := job.resumeState(); scope == scopeLocal && len(blob) > 0 {
			opt.Resume = blob
		}
		ex, err := d.ExploreCtx(ctx, opt)
		if err != nil {
			return nil, nil, err
		}
		res.Exploration = ex
		return res, nil, nil
	case KindAttack:
		a, err := d.SimulateAttack()
		if err != nil {
			return nil, nil, err
		}
		res.Attack = a
		return res, nil, nil
	}
	return nil, nil, fmt.Errorf("service: unknown job kind %q", job.Spec.Kind)
}

// retire enforces the result store's retention limit after a job reaches
// a terminal state. It is the single chokepoint every job passes on its
// way out (including jobs cancelled while queued), so terminal-state
// accounting lives here, and it closes the job's done channel only after
// counting and persisting, so Wait never returns ahead of either. The
// first call per job does the work; later calls return at once.
func (m *Manager) retire(job *Job) {
	if !job.claimRetire() {
		return
	}
	defer job.release()
	state := job.State()
	jobsFinished.With(string(job.Spec.Kind), string(state)).Inc()
	logger := obs.Logger()
	if state == StateFailed {
		logger.Warn("service: job failed",
			"job", job.ID, "kind", job.Spec.Kind,
			"attempts", job.Attempts(), "error", job.Err())
	} else {
		logger.Info("service: job finished",
			"job", job.ID, "kind", job.Spec.Kind,
			"state", state, "attempts", job.Attempts())
	}
	m.persistRetire(job)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished = append(m.finished, job.ID)
	for len(m.finished) > m.cfg.Retention {
		m.evictFinishedLocked()
	}
}
