package service

import (
	"gdsiiguard"

	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Manager) {
	t.Helper()
	m := newTestManager(t, cfg)
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(srv.Close)
	return srv, m
}

func doJSON(t *testing.T, method, url string, body any, wantStatus int) map[string]any {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s = %d, want %d; body: %s", method, url, resp.StatusCode, wantStatus, raw)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
	}
	return out
}

func pollJobDone(t *testing.T, base, id string, timeout time.Duration) map[string]any {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		got := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil, http.StatusOK)
		switch got["state"] {
		case string(StateDone):
			return got
		case string(StateFailed), string(StateCancelled):
			t.Fatalf("job %s reached %s: %v", id, got["state"], got["error"])
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s not done within %v", id, timeout)
	return nil
}

func TestHTTPHardenEndToEnd(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	// Discover benchmarks.
	benches := doJSON(t, http.MethodGet, srv.URL+"/v1/benchmarks", nil, http.StatusOK)
	found := false
	for _, v := range benches["benchmarks"].([]any) {
		if v == testBench {
			found = true
		}
	}
	if !found {
		t.Fatalf("benchmarks list lacks %s: %v", testBench, benches)
	}

	// Submit a harden job with explicit flow parameters.
	sub := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", map[string]any{
		"kind":      "harden",
		"benchmark": testBench,
		"params":    map[string]any{"op": "CS"},
	}, http.StatusAccepted)
	id, _ := sub["id"].(string)
	if id == "" || sub["state"] != string(StateQueued) {
		t.Fatalf("submit response = %v", sub)
	}

	done := pollJobDone(t, srv.URL, id, 2*time.Minute)
	hardened, _ := done["hardened"].(map[string]any)
	if hardened == nil {
		t.Fatalf("done job has no hardened metrics: %v", done)
	}
	if sec := hardened["security"].(float64); sec >= 1.0 {
		t.Errorf("hardened security = %g, want < 1", sec)
	}
	if done["baseline"] == nil {
		t.Error("done job has no baseline metrics")
	}

	// Export artifacts.
	defResp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/def")
	if err != nil {
		t.Fatal(err)
	}
	defBody, _ := io.ReadAll(defResp.Body)
	defResp.Body.Close()
	if defResp.StatusCode != http.StatusOK || !strings.Contains(string(defBody), "DESIGN "+testBench+" ;") {
		t.Errorf("DEF export: status %d, %d bytes", defResp.StatusCode, len(defBody))
	}
	gdsResp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/gdsii")
	if err != nil {
		t.Fatal(err)
	}
	gdsBody, _ := io.ReadAll(gdsResp.Body)
	gdsResp.Body.Close()
	if gdsResp.StatusCode != http.StatusOK || len(gdsBody) < 100 {
		t.Errorf("GDSII export: status %d, %d bytes", gdsResp.StatusCode, len(gdsBody))
	}

	// A second job on the same design reports a cache hit.
	sub2 := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", map[string]any{
		"kind": "attack", "benchmark": testBench,
	}, http.StatusAccepted)
	done2 := pollJobDone(t, srv.URL, sub2["id"].(string), time.Minute)
	if done2["cache_hit"] != true {
		t.Errorf("second job cache_hit = %v, want true", done2["cache_hit"])
	}
	if done2["attack"] == nil {
		t.Error("attack job has no attack payload")
	}

	// Exploration JSON keeps its delta keys: gdsiiguard.DeltaStats is
	// core.DeltaStats, whose JSON tags name them.
	ex := jobJSON(Snapshot{Result: &Result{Exploration: &gdsiiguard.Exploration{
		Delta: gdsiiguard.DeltaStats{OpRuns: 2, NetsRerouted: 5},
	}}})
	if raw, _ := json.Marshal(ex); !strings.Contains(string(raw), `"delta":{"op_runs":2,"op_memo_hits":0,"op_arena_hits":0,"op_iter_steps":0,"routes_warm":0,"nets_rerouted":5}`) {
		t.Errorf("exploration JSON lost its delta keys: %s", raw)
	}

	// Stats reflect the work done.
	stats := doJSON(t, http.MethodGet, srv.URL+"/v1/stats", nil, http.StatusOK)
	if stats["cache_hits"].(float64) < 1 {
		t.Errorf("stats cache_hits = %v, want ≥ 1", stats["cache_hits"])
	}
	byState := stats["jobs_by_state"].(map[string]any)
	if byState[string(StateDone)].(float64) < 2 {
		t.Errorf("stats done jobs = %v, want ≥ 2", byState)
	}
}

func TestHTTPCancel(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	// Occupy the single worker so the second job stays queued.
	doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", map[string]any{
		"kind": "harden", "benchmark": testBench,
	}, http.StatusAccepted)
	sub := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", map[string]any{
		"kind": "harden", "benchmark": testBench,
	}, http.StatusAccepted)
	id := sub["id"].(string)
	got := doJSON(t, http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil, http.StatusOK)
	if got["state"] != string(StateCancelled) {
		t.Errorf("cancelled queued job state = %v, want cancelled", got["state"])
	}
}

func TestHTTPErrors(t *testing.T) {
	srv, m := newTestServer(t, Config{Workers: 1})

	doJSON(t, http.MethodGet, srv.URL+"/v1/jobs/job-999", nil, http.StatusNotFound)
	doJSON(t, http.MethodDelete, srv.URL+"/v1/jobs/job-999", nil, http.StatusNotFound)
	doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", map[string]any{
		"kind": "frobnicate", "benchmark": testBench,
	}, http.StatusBadRequest)
	doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", map[string]any{
		"kind": "harden", "benchmark": testBench, "bogus_field": 1,
	}, http.StatusBadRequest)

	// Explore sizes are bounded at submit. Each row is rejected before a
	// job exists, so none of them loads a design or starts an evaluation.
	for _, explore := range []map[string]any{
		{"pop_size": -1},
		{"pop_size": 1025},
		{"generations": -1},
		{"generations": 4097},
		{"parallelism": -1},
		{"parallelism": 1025},
		{"parallelism": 100000000},
	} {
		got := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", map[string]any{
			"kind": "explore", "benchmark": testBench, "explore": explore,
		}, http.StatusBadRequest)
		if msg, _ := got["error"].(string); !strings.HasPrefix(msg, "service: explore ") {
			t.Errorf("explore %v: error %q, want a service: explore bound error", explore, msg)
		}
	}
	// Harden params are checked at submit as well: an unknown operator, a
	// scale_m whose length is not the library's layer count or an LDA
	// value outside Table I never loads a design.
	for _, params := range []map[string]any{
		{"op": "XX"},
		{"scale_m": []float64{1.2}},
		{"scale_m": []float64{}},
		{"op": "LDA", "lda_grid_n": 7},
		{"scale_m": []float64{1, 1, 1.3}},
	} {
		got := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", map[string]any{
			"kind": "harden", "benchmark": testBench, "params": params,
		}, http.StatusBadRequest)
		if msg, _ := got["error"].(string); !strings.HasPrefix(msg, "service: params: ") {
			t.Errorf("params %v: error %q, want a service: params error", params, msg)
		}
	}
	// The island-model request fields are gone: a client still sending
	// them is refused rather than silently run as a single population.
	for _, field := range []string{"islands", "migration_interval", "migration_count"} {
		got := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", map[string]any{
			"kind": "explore", "benchmark": testBench,
			"explore": map[string]any{"pop_size": 4, field: 2},
		}, http.StatusBadRequest)
		if msg, _ := got["error"].(string); !strings.Contains(msg, `unknown field "`+field+`"`) {
			t.Errorf("explore.%s: error %q, want an unknown-field error", field, msg)
		}
	}
	// One job object per body: a second value after it is refused, not
	// silently dropped.
	resp0, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(
		`{"kind":"harden","benchmark":"`+testBench+`"} {"kind":"attack"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp0.Body.Close()
	if resp0.StatusCode != http.StatusBadRequest {
		t.Errorf("body with trailing data = %d, want %d", resp0.StatusCode, http.StatusBadRequest)
	}
	if st := m.Stats(); len(st.JobsByState) != 0 || st.Cache.Misses != 0 {
		t.Fatalf("rejected submissions created jobs %v or loaded designs (%d cache misses)",
			st.JobsByState, st.Cache.Misses)
	}

	// Artifacts of a non-done job are a conflict.
	sub := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", map[string]any{
		"kind": "harden", "benchmark": testBench,
	}, http.StatusAccepted)
	id := sub["id"].(string)
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/def")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("DEF of unfinished job = %d, want %d", resp.StatusCode, http.StatusConflict)
	}

	// An attack job finishes done but has no layout artifact.
	done := pollJobDone(t, srv.URL, id, 2*time.Minute)
	_ = done
	sub2 := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", map[string]any{
		"kind": "attack", "benchmark": testBench,
	}, http.StatusAccepted)
	pollJobDone(t, srv.URL, sub2["id"].(string), time.Minute)
	resp2, err := http.Get(srv.URL + "/v1/jobs/" + sub2["id"].(string) + "/gdsii")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("GDSII of attack job = %d, want %d", resp2.StatusCode, http.StatusConflict)
	}

	// After shutdown the API sheds load.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", map[string]any{
		"kind": "harden", "benchmark": testBench,
	}, http.StatusServiceUnavailable)
}

func TestHTTPSubmitDEFJob(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	// Produce a real DEF via the library, then harden it through the API.
	m2 := newTestManager(t, Config{Workers: 1})
	job, err := m2.Submit(Spec{Kind: KindHarden, Benchmark: testBench})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, job, 2*time.Minute); got != StateDone {
		t.Fatalf("seed job = %s (err %v)", got, job.Err())
	}
	var def bytes.Buffer
	if err := job.Hardened().WriteDEF(&def); err != nil {
		t.Fatal(err)
	}

	sub := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", map[string]any{
		"kind":     "attack",
		"def":      def.String(),
		"clock_ps": 2000,
	}, http.StatusAccepted)
	done := pollJobDone(t, srv.URL, sub["id"].(string), 2*time.Minute)
	if done["attack"] == nil {
		t.Fatalf("DEF attack job has no attack payload: %v", done)
	}
	if fmt.Sprint(done["cache_hit"]) == "true" {
		t.Error("first DEF job unexpectedly hit the cache")
	}
}

// A saturated queue is the client's pace problem, not a server outage:
// it must surface as 429 (with Retry-After), distinct from the 503 a
// draining server returns. Load balancers key on this split — a 503
// ejects the instance, a 429 just slows the client down.
func TestHTTPQueueFullReturns429(t *testing.T) {
	srv, m := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// Occupy the single worker with a long exploration, then fill the
	// one-slot queue, so the next submission deterministically overflows.
	running, err := m.Submit(Spec{
		Kind:      KindExplore,
		Benchmark: testBench,
		Explore:   gdsiiguard.ExploreOptions{PopSize: 8, Generations: 16, Parallelism: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning, time.Minute)
	queued, err := m.Submit(Spec{Kind: KindHarden, Benchmark: testBench})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"attack","benchmark":"`+testBench+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post with full queue = %d, want %d", resp.StatusCode, http.StatusTooManyRequests)
	}
	if got := resp.Header.Get("Retry-After"); got != retryAfterSeconds {
		t.Errorf("Retry-After = %q, want %q", got, retryAfterSeconds)
	}

	for _, job := range []*Job{running, queued} {
		if _, err := m.Cancel(job.ID); err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, job, time.Minute)
	}
}
