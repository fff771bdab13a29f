package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"gdsiiguard"
)

// testBench is the smallest/fastest built-in benchmark, used throughout.
const testBench = "PRESENT"

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = m.Shutdown(ctx)
	})
	return m
}

func waitState(t *testing.T, job *Job, want State, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if job.State() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s state = %s, want %s within %v", job.ID, job.State(), want, timeout)
}

func waitTerminal(t *testing.T, job *Job, timeout time.Duration) State {
	t.Helper()
	select {
	case <-job.Done():
		return job.State()
	case <-time.After(timeout):
		t.Fatalf("job %s still %s after %v", job.ID, job.State(), timeout)
		return ""
	}
}

func TestConcurrentJobsBoundedWorkers(t *testing.T) {
	const workers, jobs = 2, 5
	m := newTestManager(t, Config{Workers: workers, QueueDepth: 16})
	var submitted []*Job
	for i := 0; i < jobs; i++ {
		job, err := m.Submit(Spec{Kind: KindHarden, Benchmark: testBench})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		submitted = append(submitted, job)
	}
	for _, job := range submitted {
		if got := waitTerminal(t, job, 2*time.Minute); got != StateDone {
			t.Fatalf("job %s = %s (err %v), want done", job.ID, got, job.Err())
		}
		res := job.Result()
		if res == nil || res.Hardened == nil {
			t.Fatalf("job %s has no hardened metrics", job.ID)
		}
		if res.Hardened.Security >= 1.0 {
			t.Errorf("job %s hardened security = %g, want < 1", job.ID, res.Hardened.Security)
		}
	}
	s := m.Stats()
	if s.PeakBusy > workers {
		t.Errorf("peak busy workers = %d, want ≤ %d (bounded pool)", s.PeakBusy, workers)
	}
	if s.JobsByState[StateDone] != jobs {
		t.Errorf("done jobs = %d, want %d", s.JobsByState[StateDone], jobs)
	}
	// One load, four cache hits: all five jobs target the same design.
	if s.Cache.Misses != 1 || s.Cache.Hits != jobs-1 {
		t.Errorf("cache = %+v, want 1 miss / %d hits", s.Cache, jobs-1)
	}
}

func TestSecondJobHitsDesignCache(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	first, err := m.Submit(Spec{Kind: KindHarden, Benchmark: testBench})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, first, time.Minute); got != StateDone {
		t.Fatalf("first job = %s (err %v)", got, first.Err())
	}
	if first.Result().CacheHit {
		t.Error("first job reported a cache hit")
	}
	hitsBefore := m.Stats().Cache.Hits

	second, err := m.Submit(Spec{Kind: KindAttack, Benchmark: testBench})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, second, time.Minute); got != StateDone {
		t.Fatalf("second job = %s (err %v)", got, second.Err())
	}
	if !second.Result().CacheHit {
		t.Error("second job on the same benchmark missed the design cache")
	}
	if second.Result().Attack == nil {
		t.Error("attack job has no attack result")
	}
	if hits := m.Stats().Cache.Hits; hits <= hitsBefore {
		t.Errorf("cache hits did not increment: %d → %d", hitsBefore, hits)
	}
}

func TestCancelRunningJobStopsPromptly(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	// Big enough that the exploration would run far longer than the
	// cancellation bound if ctx were ignored.
	job, err := m.Submit(Spec{
		Kind:      KindExplore,
		Benchmark: testBench,
		Explore:   gdsiiguard.ExploreOptions{PopSize: 8, Generations: 8, Parallelism: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateRunning, time.Minute)
	canceledAt := time.Now()
	if _, err := m.Cancel(job.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if got := waitTerminal(t, job, 30*time.Second); got != StateCancelled {
		t.Fatalf("cancelled job = %s (err %v), want cancelled", got, job.Err())
	}
	// The flow observes ctx between stages/evaluations, so cancellation
	// latency is bounded by roughly one flow evaluation, not the full run.
	if took := time.Since(canceledAt); took > 15*time.Second {
		t.Errorf("cancellation took %v, want prompt stop", took)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 8})
	blocker, err := m.Submit(Spec{Kind: KindHarden, Benchmark: testBench})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(Spec{Kind: KindHarden, Benchmark: testBench})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	// Cancelled while queued: terminal immediately, no execution.
	if got := queued.State(); got != StateCancelled {
		t.Errorf("queued job = %s after cancel, want cancelled", got)
	}
	if got := waitTerminal(t, blocker, time.Minute); got != StateDone {
		t.Fatalf("blocker = %s (err %v)", got, blocker.Err())
	}
	if queued.Result() != nil {
		t.Error("cancelled queued job has a result")
	}
}

// Cancelling queued jobs races the worker that dequeues them: either may
// retire a job, and exactly one does, so every job is counted once in
// gdsiiguard_jobs_finished_total and every Wait returns.
func TestCancelQueuedJobsRetireOnce(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 32})
	finished := func() float64 {
		n := 0.0
		for _, s := range []State{StateDone, StateFailed, StateCancelled} {
			n += jobsFinished.With(string(KindAttack), string(s)).Value()
		}
		return n
	}
	before := finished()
	var jobs []*Job
	for i := 0; i < 32; i++ {
		job, err := m.Submit(Spec{Kind: KindAttack, Benchmark: testBench})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	var wg sync.WaitGroup
	for _, job := range jobs {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if _, err := m.Cancel(id); err != nil {
				t.Error(err)
			}
		}(job.ID)
	}
	wg.Wait()
	for _, job := range jobs {
		if st := waitTerminal(t, job, time.Minute); st != StateCancelled && st != StateDone {
			t.Errorf("job %s = %s (err %v)", job.ID, st, job.Err())
		}
	}
	if got := finished() - before; got != float64(len(jobs)) {
		t.Errorf("%v jobs counted finished, want %d", got, len(jobs))
	}
}

func TestJobTimeout(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	job, err := m.Submit(Spec{Kind: KindHarden, Benchmark: testBench, Timeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, job, time.Minute); got != StateFailed {
		t.Fatalf("timed-out job = %s, want failed", got)
	}
	if err := job.Err(); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("timeout error = %v, want 'timed out'", err)
	}
}

func TestQueueFullRejectsFast(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 1})
	full := false
	var accepted []*Job
	for i := 0; i < 4; i++ {
		job, err := m.Submit(Spec{Kind: KindHarden, Benchmark: testBench})
		switch {
		case errors.Is(err, ErrQueueFull):
			full = true
		case err != nil:
			t.Fatalf("Submit %d: %v", i, err)
		default:
			accepted = append(accepted, job)
		}
	}
	if !full {
		t.Error("bounded queue never reported ErrQueueFull under burst submission")
	}
	for _, job := range accepted {
		waitTerminal(t, job, 2*time.Minute)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	cases := map[string]Spec{
		"unknown kind":      {Kind: "frobnicate", Benchmark: testBench},
		"no design":         {Kind: KindHarden},
		"both designs":      {Kind: KindHarden, Benchmark: testBench, DEF: []byte("DESIGN X ;")},
		"def without clock": {Kind: KindHarden, DEF: []byte("DESIGN X ;")},
		"negative timeout":  {Kind: KindHarden, Benchmark: testBench, Timeout: -time.Second},
	}
	for name, spec := range cases {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestUnknownBenchmarkFailsJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	job, err := m.Submit(Spec{Kind: KindHarden, Benchmark: "NO_SUCH_DESIGN"})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, job, time.Minute); got != StateFailed {
		t.Fatalf("job = %s, want failed", got)
	}
	if job.Err() == nil {
		t.Error("failed job has nil error")
	}
}

func TestShutdownDrains(t *testing.T) {
	m := New(Config{Workers: 2, QueueDepth: 8})
	var jobs []*Job
	for i := 0; i < 3; i++ {
		job, err := m.Submit(Spec{Kind: KindHarden, Benchmark: testBench})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, job := range jobs {
		if got := job.State(); got != StateDone {
			t.Errorf("job %s = %s after graceful shutdown, want done (err %v)",
				job.ID, got, job.Err())
		}
	}
	if _, err := m.Submit(Spec{Kind: KindHarden, Benchmark: testBench}); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("Submit after shutdown = %v, want ErrShuttingDown", err)
	}
	// Shutdown is idempotent.
	if err := m.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

func TestResultRetention(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, Retention: 2, QueueDepth: 8})
	var jobs []*Job
	for i := 0; i < 4; i++ {
		job, err := m.Submit(Spec{Kind: KindAttack, Benchmark: testBench})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		waitTerminal(t, job, time.Minute)
	}
	// Retirement happens in the worker just after the job finishes; poll
	// for the eviction of the two oldest jobs.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, err0 := m.Get(jobs[0].ID)
		_, err1 := m.Get(jobs[1].ID)
		if errors.Is(err0, ErrNotFound) && errors.Is(err1, ErrNotFound) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := m.Get(jobs[0].ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("oldest job still retained: %v", err)
	}
	for _, job := range jobs[2:] {
		if _, err := m.Get(job.ID); err != nil {
			t.Errorf("recent job %s evicted: %v", job.ID, err)
		}
	}
}
