package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"gdsiiguard/internal/service"
)

// scrapeMetrics returns the text of the server's /metrics page.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue returns the value of the series on the page, 0 when the
// page does not list it.
func metricValue(t *testing.T, page, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return f
		}
	}
	return 0
}

// TestMetricsEndpoint runs one job and reads its lifecycle on /metrics.
// The counters are process-wide, so it checks what the job added to them,
// and the test can run any number of times in one process.
func TestMetricsEndpoint(t *testing.T) {
	mgr := service.New(service.Config{Workers: 1, QueueDepth: 4})
	defer mgr.Shutdown(context.Background())
	srv := httptest.NewServer(newMux(mgr, false))
	defer srv.Close()

	counters := []string{
		`gdsiiguard_jobs_submitted_total{kind="attack"}`,
		`gdsiiguard_jobs_finished_total{kind="attack",state="done"}`,
	}
	page := scrapeMetrics(t, srv.URL)
	before := make([]float64, len(counters))
	for i, c := range counters {
		before[i] = metricValue(t, page, c)
	}

	// Run one job so the lifecycle metrics have data.
	job, err := mgr.Submit(service.Spec{Kind: service.KindAttack, Benchmark: "PRESENT", Timeout: 2 * time.Minute})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st := job.Wait(); st != service.StateDone {
		t.Fatalf("job state = %s, err = %v", st, job.Err())
	}

	page = scrapeMetrics(t, srv.URL)
	for i, c := range counters {
		if got := metricValue(t, page, c); got != before[i]+1 {
			t.Errorf("%s = %v, want %v", c, got, before[i]+1)
		}
	}
	for _, want := range []string{
		"gdsiiguard_job_queue_wait_seconds_count",
		"gdsiiguard_job_exec_seconds_count{kind=\"attack\"}",
		"gdsiiguard_service_workers_busy_peak",
		"gdsiiguard_design_cache_lookups_total{result=\"miss\"}",
		"gdsiiguard_flow_stage_seconds_bucket",
		"gdsiiguard_route_seconds_count",
		"gdsiiguard_sta_seconds_count",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// pprof stays off unless opted in.
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof served without -pprof")
	}
}

func TestPprofOptIn(t *testing.T) {
	mgr := service.New(service.Config{Workers: 1, QueueDepth: 1})
	defer mgr.Shutdown(context.Background())
	srv := httptest.NewServer(newMux(mgr, true))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline status = %d with -pprof", resp.StatusCode)
	}
}

func TestSetupLogging(t *testing.T) {
	if err := setupLogging("debug"); err != nil {
		t.Errorf("setupLogging(debug): %v", err)
	}
	if err := setupLogging("nope"); err == nil {
		t.Error("setupLogging accepted a bogus level")
	}
}
