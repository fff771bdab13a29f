package service

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"gdsiiguard/internal/fault"
)

func armFaults(t *testing.T, rules map[fault.Point]fault.Rule) {
	t.Helper()
	fault.Arm(rules)
	t.Cleanup(fault.Disarm)
}

// prewarm loads testBench into the manager's design cache (including its
// baseline evaluation) so that faults armed afterwards hit only the job
// under test, not the shared cache fill.
func prewarm(t *testing.T, m *Manager) {
	t.Helper()
	job, err := m.Submit(Spec{Kind: KindAttack, Benchmark: testBench})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, job, 2*time.Minute); got != StateDone {
		t.Fatalf("prewarm job = %s (err %v)", got, job.Err())
	}
}

// TestPermanentFailureRunsOnce: a failed job execution ends the job on
// its first attempt, classified at the flow boundary.
func TestPermanentFailureRunsOnce(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	prewarm(t, m)
	armFaults(t, map[fault.Point]fault.Rule{
		fault.Route: {Every: 1, Msg: "congestion unroutable"},
	})

	job, err := m.Submit(Spec{Kind: KindHarden, Benchmark: testBench})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, job, 2*time.Minute); got != StateFailed {
		t.Fatalf("job = %s, want %s", got, StateFailed)
	}
	if job.Attempts() != 1 {
		t.Errorf("Attempts = %d, want 1 (a failed execution is not re-run)", job.Attempts())
	}
	if snap := job.Snapshot(); snap.ErrorClass != "permanent" {
		t.Errorf("ErrorClass = %q, want %q", snap.ErrorClass, "permanent")
	}
}

// TestPanicFailsJobNotService is the robustness acceptance scenario: a
// panic injected into a flow stage marks that job failed with error class
// "panic" while guardd keeps serving subsequent jobs, end to end through
// the HTTP API.
func TestPanicFailsJobNotService(t *testing.T) {
	srv, m := newTestServer(t, Config{Workers: 1})
	prewarm(t, m)
	armFaults(t, map[fault.Point]fault.Rule{
		fault.STA: {Every: 1, Limit: 1, Panic: true, Msg: "sta engine blew up"},
	})

	sub := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", map[string]any{
		"kind": "harden", "benchmark": testBench,
	}, http.StatusAccepted)
	id := sub["id"].(string)

	var got map[string]any
	deadline := time.Now().Add(2 * time.Minute)
	for {
		got = doJSON(t, http.MethodGet, srv.URL+"/v1/jobs/"+id, nil, http.StatusOK)
		if State(got["state"].(string)).Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal in time: %v", id, got)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got["state"] != string(StateFailed) {
		t.Fatalf("job state = %v, want %s", got["state"], StateFailed)
	}
	if got["error_class"] != "panic" {
		t.Errorf("error_class = %v, want %q (body: %v)", got["error_class"], "panic", got)
	}
	if msg, _ := got["error"].(string); !strings.Contains(msg, "panic") {
		t.Errorf("error message %q does not mention the panic", msg)
	}

	// The worker survived: the next job on the same manager completes.
	fault.Disarm()
	sub2 := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", map[string]any{
		"kind": "harden", "benchmark": testBench,
	}, http.StatusAccepted)
	pollJobDone(t, srv.URL, sub2["id"].(string), 2*time.Minute)
}

func TestWorkerPanicIsCountedInStats(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	armFaults(t, map[fault.Point]fault.Rule{
		fault.Service: {Every: 1, Limit: 1, Panic: true},
	})

	job, err := m.Submit(Spec{Kind: KindAttack, Benchmark: testBench})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, job, time.Minute); got != StateFailed {
		t.Fatalf("job = %s, want %s", got, StateFailed)
	}
	if snap := job.Snapshot(); snap.ErrorClass != "panic" {
		t.Errorf("ErrorClass = %q, want %q", snap.ErrorClass, "panic")
	}
	if got := m.Stats().PanicsRecovered; got != 1 {
		t.Errorf("Stats().PanicsRecovered = %d, want 1", got)
	}
}

func TestHTTPBodyLimits(t *testing.T) {
	old := maxRequestBody
	maxRequestBody = 256
	t.Cleanup(func() { maxRequestBody = old })
	srv, _ := newTestServer(t, Config{Workers: 1})

	// Oversized body: clear 400, not a hung or reset connection.
	big := `{"kind":"harden","benchmark":"` + strings.Repeat("X", 512) + `"}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	_, _ = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body = %d, want %d (body: %s)", resp.StatusCode, http.StatusBadRequest, body)
	}
	if !strings.Contains(body.String(), "exceeds") {
		t.Errorf("oversized-body error %q does not name the limit", body)
	}

	// Malformed JSON under the limit: also a clear 400.
	resp2, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"kind": `))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON = %d, want %d", resp2.StatusCode, http.StatusBadRequest)
	}
}

func TestHTTPRetryAfterOnOverload(t *testing.T) {
	srv, m := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"attack","benchmark":"`+testBench+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post after shutdown = %d, want %d", resp.StatusCode, http.StatusServiceUnavailable)
	}
	if got := resp.Header.Get("Retry-After"); got != retryAfterSeconds {
		t.Errorf("Retry-After = %q, want %q", got, retryAfterSeconds)
	}
}
