package service

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"gdsiiguard"
	"gdsiiguard/internal/durable"
	"gdsiiguard/internal/obs"
)

// openStore opens a durable store rooted at dir, failing the test on error.
func openStore(t *testing.T, dir string) *durable.Store {
	t.Helper()
	st, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// waitCheckpoint polls until the job has recorded at least one exploration
// checkpoint.
func waitCheckpoint(t *testing.T, job *Job, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if _, blob := job.resumeState(); len(blob) > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s produced no checkpoint within %v", job.ID, timeout)
}

// testExploreSpec is the exploration used by the durability tests: long
// enough to checkpoint mid-run, deterministic under a fixed seed.
func testExploreSpec() Spec {
	return Spec{
		Kind:      KindExplore,
		Benchmark: testBench,
		Explore: gdsiiguard.ExploreOptions{
			PopSize:     6,
			Generations: 8,
			Parallelism: 1,
			Seed:        42,
		},
	}
}

// interruptExplore submits testExploreSpec against a durable manager, waits
// for a mid-run checkpoint, then drains the manager with an expired context
// (the shutdown path, not a user cancel) and closes the store — leaving dir
// holding an interrupted job with a resumable checkpoint. Returns the job ID.
func interruptExplore(t *testing.T, dir string) string {
	t.Helper()
	st := openStore(t, dir)
	m := New(Config{Workers: 1, QueueDepth: 4, Store: st})
	job, err := m.Submit(testExploreSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateRunning, time.Minute)
	waitCheckpoint(t, job, time.Minute)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: drain hard-cancels the running job
	_ = m.Shutdown(ctx)
	if got := job.State(); got != StateCancelled {
		t.Fatalf("drained job = %s, want cancelled", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return job.ID
}

// stripRuntime zeroes the measured wall-clock Runtime on every front point:
// it is the one metric that is timed, not computed, so it is the one metric
// a bit-identical resume legitimately cannot reproduce.
func stripRuntime(ex *gdsiiguard.Exploration) *gdsiiguard.Exploration {
	if ex == nil {
		return nil
	}
	out := *ex
	out.Front = append([]gdsiiguard.ParetoPoint(nil), ex.Front...)
	for i := range out.Front {
		out.Front[i].Metrics.Runtime = 0
	}
	// Delta reuse counters depend on how many evaluations the resumed run
	// actually executed (a resume re-runs only the tail), not on the
	// results; the front/metric equality below is the real gate.
	out.Delta = gdsiiguard.DeltaStats{}
	return &out
}

// goldenExploration runs the same spec to completion on a non-durable
// manager: the reference an interrupted-and-resumed run must reproduce
// bit-identically.
func goldenExploration(t *testing.T) *gdsiiguard.Exploration {
	t.Helper()
	m := newTestManager(t, Config{Workers: 1})
	job, err := m.Submit(testExploreSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, job, 2*time.Minute); got != StateDone {
		t.Fatalf("golden job = %s (err %v)", got, job.Err())
	}
	return job.Result().Exploration
}

// A finished job must survive a restart: same ID, same terminal state, same
// result payload — with the hardened layout artifact deliberately absent
// (re-derivable, not persisted) — and the ID sequence must continue past
// recovered jobs instead of colliding with them.
func TestDurableTerminalJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	m1 := New(Config{Workers: 1, Store: st})
	job, err := m1.Submit(Spec{Kind: KindHarden, Benchmark: testBench})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, job, 2*time.Minute); got != StateDone {
		t.Fatalf("job = %s (err %v)", got, job.Err())
	}
	wantMetrics := job.Result().Hardened
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := m1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	t.Cleanup(func() { st2.Close() })
	m2 := newTestManager(t, Config{Workers: 1, Store: st2})
	got, err := m2.Get(job.ID)
	if err != nil {
		t.Fatalf("recovered Get(%s): %v", job.ID, err)
	}
	if got.State() != StateDone {
		t.Errorf("recovered job = %s, want done", got.State())
	}
	if res := got.Result(); res == nil || res.Hardened == nil {
		t.Fatalf("recovered job lost its result: %+v", got.Result())
	} else if !reflect.DeepEqual(res.Hardened, wantMetrics) {
		t.Errorf("recovered metrics = %+v, want %+v", res.Hardened, wantMetrics)
	}
	if got.Hardened() != nil {
		t.Error("recovered job resurrected the hardened layout artifact (not persisted by design)")
	}

	next, err := m2.Submit(Spec{Kind: KindAttack, Benchmark: testBench})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID == job.ID {
		t.Errorf("post-recovery submission reused recovered job ID %s", next.ID)
	}
	waitTerminal(t, next, time.Minute)
}

// The tentpole invariant end to end at the service layer: an exploration
// interrupted by a drain re-queues on restart, resumes from its durable
// checkpoint, and finishes with a front bit-identical to an uninterrupted
// run of the same spec.
func TestDurableInterruptedExploreResumesOnRestart(t *testing.T) {
	dir := t.TempDir()
	id := interruptExplore(t, dir)

	st := openStore(t, dir)
	t.Cleanup(func() { st.Close() })
	m := New(Config{Workers: 1, QueueDepth: 4, Store: st})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = m.Shutdown(ctx)
	})
	job, err := m.Get(id)
	if err != nil {
		t.Fatalf("interrupted job not recovered: %v", err)
	}
	if scope, blob := job.resumeState(); scope != scopeLocal || len(blob) == 0 {
		t.Fatalf("recovered job has no local checkpoint (scope %q, %d bytes)", scope, len(blob))
	}
	if got := waitTerminal(t, job, 2*time.Minute); got != StateDone {
		t.Fatalf("resumed job = %s (err %v)", got, job.Err())
	}
	got := stripRuntime(job.Result().Exploration)
	want := stripRuntime(goldenExploration(t))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed exploration diverged from uninterrupted run:\n got: %+v\nwant: %+v", got, want)
	}
}

// A torn final write (crash mid-append) must cost at most the un-synced
// tail, never the job: the log recovers to the last valid checkpoint and
// the exploration still resumes to the golden front.
func TestDurableCorruptTailResumesFromLastCheckpoint(t *testing.T) {
	dir := t.TempDir()
	id := interruptExplore(t, dir)

	// Tear the log's tail: a partial record with a bogus CRC and no newline,
	// exactly what a crash mid-write leaves behind.
	wal := filepath.Join(dir, "jobs", id+".wal")
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"t":"state","d":{"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st := openStore(t, dir)
	t.Cleanup(func() { st.Close() })
	m := New(Config{Workers: 1, QueueDepth: 4, Store: st})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = m.Shutdown(ctx)
	})
	job, err := m.Get(id)
	if err != nil {
		t.Fatalf("torn-tail job quarantined instead of recovered: %v", err)
	}
	if got := waitTerminal(t, job, 2*time.Minute); got != StateDone {
		t.Fatalf("resumed job = %s (err %v)", got, job.Err())
	}
	if want := stripRuntime(goldenExploration(t)); !reflect.DeepEqual(stripRuntime(job.Result().Exploration), want) {
		t.Error("torn-tail resume diverged from uninterrupted run")
	}
}

// A log written by an island-model coordinator holds its spec in the old
// form (with the island fields) and a checkpoint of scope "cluster". Only
// nsga2 checkpoints resume, so the recovered job must ignore that
// checkpoint and re-run from generation 0 to the front a fresh run
// produces: no failure and no retry loop.
func TestDurableClusterCheckpointRerunsLocally(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	l, err := st.Log("job-1")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(specRecord{Spec: testExploreSpec(), Submitted: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	var old map[string]any
	if err := json.Unmarshal(spec, &old); err != nil {
		t.Fatal(err)
	}
	explore := old["spec"].(map[string]any)["Explore"].(map[string]any)
	explore["Islands"], explore["MigrationInterval"], explore["MigrationCount"] = 2, 2, 1
	epoch := json.RawMessage(`{"seed":42,"islands":2,"epoch":1,` +
		`"states":[{"alive":true},{"alive":true}],"evaluations":24,"migrations":2}`)
	for _, rec := range []struct {
		typ string
		v   any
	}{
		{recSpec, old},
		{recState, stateRecord{State: StateRunning, Attempt: 1, Time: time.Now()}},
		{recCheckpoint, checkpointRecord{Scope: "cluster", Data: epoch}},
	} {
		if err := l.Append(rec.typ, rec.v); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	t.Cleanup(func() { st2.Close() })
	m := newTestManager(t, Config{Workers: 1, Store: st2})
	job, err := m.Get("job-1")
	if err != nil {
		t.Fatalf("cluster-era job not recovered: %v", err)
	}
	if got := waitTerminal(t, job, 2*time.Minute); got != StateDone {
		t.Fatalf("recovered job = %s (err %v)", got, job.Err())
	}
	if n := job.Attempts(); n != 1 {
		t.Errorf("recovered job took %d attempts, want 1", n)
	}
	if want := stripRuntime(goldenExploration(t)); !reflect.DeepEqual(stripRuntime(job.Result().Exploration), want) {
		t.Error("cluster-era job did not re-run to the fresh run's front")
	}
}

// A log whose surviving records cannot identify the job (no spec) is
// quarantined aside — startup proceeds, the bytes stay on disk for
// post-mortem, and the ID sequence still advances past the quarantined ID.
func TestDurableQuarantinesSpeclessLog(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	l, err := st.Log("job-9")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recCheckpoint, checkpointRecord{Scope: scopeLocal, Data: []byte("{}")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	t.Cleanup(func() { st2.Close() })
	m := newTestManager(t, Config{Workers: 1, Store: st2})
	if _, err := m.Get("job-9"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(quarantined) = %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", "job-9.wal.bad")); err != nil {
		t.Errorf("quarantined log bytes missing: %v", err)
	}
	job, err := m.Submit(Spec{Kind: KindAttack, Benchmark: testBench})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "job-10" {
		t.Errorf("post-quarantine ID = %s, want job-10 (sequence must clear the quarantined ID)", job.ID)
	}
	waitTerminal(t, job, time.Minute)
}

// Retention eviction must stay correct under concurrent Submit and Get
// traffic: terminal jobs never exceed the retention bound, evicted jobs
// drop their durable logs, and lookups race-free throughout (the race
// detector patrols this test).
func TestRetentionEvictionConcurrent(t *testing.T) {
	const retention, submitters, perSubmitter = 4, 3, 4
	dir := t.TempDir()
	st := openStore(t, dir)
	t.Cleanup(func() { st.Close() })
	m := newTestManager(t, Config{
		Workers: 4, QueueDepth: 32, Retention: retention,
		Store: st,
	})

	var mu sync.Mutex
	var ids []string
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			var id string
			if len(ids) > 0 {
				id = ids[i%len(ids)]
			}
			mu.Unlock()
			if id != "" {
				if job, err := m.Get(id); err == nil {
					_ = job.Snapshot()
				}
			}
		}
	}()

	var subs sync.WaitGroup
	for s := 0; s < submitters; s++ {
		subs.Add(1)
		go func() {
			defer subs.Done()
			for i := 0; i < perSubmitter; i++ {
				job, err := m.Submit(Spec{Kind: KindAttack, Benchmark: testBench})
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				mu.Lock()
				ids = append(ids, job.ID)
				mu.Unlock()
				job.Wait()
			}
		}()
	}
	subs.Wait()
	close(stop)
	readers.Wait()

	// Job.Wait returns when the terminal state lands; retirement (and so
	// eviction) trails it by one worker step, so poll until it settles.
	deadline := time.Now().Add(30 * time.Second)
	for {
		terminal := 0
		for _, n := range m.Stats().JobsByState {
			terminal += n
		}
		kept, err := st.List()
		if err != nil {
			t.Fatal(err)
		}
		if terminal <= retention && len(kept) <= retention {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs / %d durable logs retained, want ≤ %d (eviction must drop both)",
				terminal, len(kept), retention)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Drain ordering: readiness flips to 503 while the in-flight exploration is
// still draining, and once the drain completes the job's log ends with the
// interrupted marker after its last flushed checkpoint — the exact state a
// restart resumes from.
func TestReadyzDrainThenFinalCheckpointOrdering(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	m := New(Config{Workers: 1, QueueDepth: 4, Store: st})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	// The job must still be running when the 100 ms drain below expires,
	// however fast the machine evaluates, so it explores far longer than
	// testExploreSpec; the drain cancels it long before it could finish.
	spec := testExploreSpec()
	spec.Explore.Generations = 400
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateRunning, time.Minute)
	waitCheckpoint(t, job, time.Minute)

	resp, err := http.Get(srv.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain = %d, want 200", resp.StatusCode)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		shutdownDone <- m.Shutdown(ctx)
	}()

	// Readiness must flip before the drain finishes, so load balancers
	// stop routing while in-flight work winds down.
	flipped := false
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); {
		resp, err := http.Get(srv.URL + "/v1/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			flipped = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !flipped {
		t.Fatal("readyz never returned 503 during drain")
	}
	<-shutdownDone
	if got := job.State(); got != StateCancelled {
		t.Fatalf("drained job = %s, want cancelled", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay the log the drain left behind: the final record must be the
	// interrupted marker, with the last checkpoint flushed before it.
	st2 := openStore(t, dir)
	defer st2.Close()
	l, err := st2.Log(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	snap, tail, err := l.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) == 0 {
		t.Fatal("drained job log has no tail records")
	}
	last := tail[len(tail)-1]
	if last.Type != recState {
		t.Fatalf("final record type = %s, want %s", last.Type, recState)
	}
	var s stateRecord
	if err := json.Unmarshal(last.Data, &s); err != nil {
		t.Fatal(err)
	}
	if s.State != stateInterrupted {
		t.Errorf("final state record = %s, want %s", s.State, stateInterrupted)
	}
	sawCheckpoint := snap != nil
	for _, rec := range tail[:len(tail)-1] {
		if rec.Type == recCheckpoint {
			sawCheckpoint = true
		}
	}
	if !sawCheckpoint {
		t.Error("no checkpoint flushed before the interrupted marker")
	}
}

// parkHandler is a slog handler that parks the first goroutine logging msg
// until proceed is closed, after closing reached.
type parkHandler struct {
	msg              string
	reached, proceed chan struct{}
	once             sync.Once
}

func (h *parkHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *parkHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *parkHandler) WithGroup(string) slog.Handler            { return h }
func (h *parkHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message == h.msg {
		h.once.Do(func() {
			close(h.reached)
			<-h.proceed
		})
	}
	return nil
}

// A job's done channel closes only after the manager has counted it in
// gdsiiguard_jobs_finished_total and persisted its terminal snapshot, so
// Wait never returns ahead of either. The retire path is parked at its
// "job finished" log line, which comes after the count and before the
// persist: done must still be open there. Once released, Wait must see
// the count and the snapshot.
func TestWaitReturnsAfterRetire(t *testing.T) {
	h := &parkHandler{msg: "service: job finished", reached: make(chan struct{}), proceed: make(chan struct{})}
	obs.SetLogger(slog.New(h))
	t.Cleanup(func() { obs.SetLogger(nil) })
	st := openStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	m := newTestManager(t, Config{Workers: 1, Store: st})
	// Registered after the manager, so it runs before the manager's
	// shutdown: a failed assertion must not leave the worker parked.
	release := sync.OnceFunc(func() { close(h.proceed) })
	t.Cleanup(release)
	finished := jobsFinished.With(string(KindAttack), string(StateDone))
	before := finished.Value()

	job, err := m.Submit(Spec{Kind: KindAttack, Benchmark: testBench})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.reached:
	case <-job.Done():
		t.Fatal("done closed before the job was retired")
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s never retired (state %s)", job.ID, job.State())
	}
	select {
	case <-job.Done():
		t.Fatal("done closed before the terminal snapshot was persisted")
	default:
	}
	release()

	if got := job.Wait(); got != StateDone {
		t.Fatalf("job = %s (err %v)", got, job.Err())
	}
	if got := finished.Value(); got != before+1 {
		t.Errorf("jobs_finished_total{attack,done} = %v after Wait, want %v", got, before+1)
	}
	l, err := st.Log(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	snap, tail, err := l.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Type != recJob || len(tail) != 0 {
		t.Fatalf("log after Wait: snapshot %v, %d tail records; want one compacted job snapshot", snap, len(tail))
	}
	var js jobSnapshot
	if err := json.Unmarshal(snap.Data, &js); err != nil {
		t.Fatal(err)
	}
	if js.State != StateDone {
		t.Errorf("persisted state = %s after Wait, want done", js.State)
	}
}

// TestStorelessExploreTakesNoCheckpoint runs an exploration on a manager
// without a store. Nothing can re-execute such a job, so it must finish
// without recording a checkpoint blob.
func TestStorelessExploreTakesNoCheckpoint(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 1})
	job, err := m.Submit(testExploreSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job, 2*time.Minute); st != StateDone {
		t.Fatalf("explore job %s, want %s (err %v)", st, StateDone, job.Err())
	}
	if scope, blob := job.resumeState(); scope != "" || len(blob) != 0 {
		t.Fatalf("store-less job recorded a checkpoint (scope %q, %d bytes)", scope, len(blob))
	}
}
