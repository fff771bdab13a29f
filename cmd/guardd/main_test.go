package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gdsiiguard/internal/service"
)

func TestMetricsEndpoint(t *testing.T) {
	mgr := service.New(service.Config{Workers: 1, QueueDepth: 4})
	defer mgr.Shutdown(context.Background())
	srv := httptest.NewServer(newMux(mgr, false))
	defer srv.Close()

	// Run one job so the lifecycle metrics have data.
	job, err := mgr.Submit(service.Spec{Kind: service.KindAttack, Benchmark: "PRESENT", Timeout: 2 * time.Minute})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st := job.Wait(); st != service.StateDone {
		t.Fatalf("job state = %s, err = %v", st, job.Err())
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"gdsiiguard_jobs_submitted_total{kind=\"attack\"} 1",
		"gdsiiguard_jobs_finished_total{kind=\"attack\",state=\"done\"} 1",
		"gdsiiguard_job_queue_wait_seconds_count",
		"gdsiiguard_job_exec_seconds_count{kind=\"attack\"}",
		"gdsiiguard_service_workers_busy_peak",
		"gdsiiguard_design_cache_lookups_total{result=\"miss\"}",
		"gdsiiguard_flow_stage_seconds_bucket",
		"gdsiiguard_route_seconds_count",
		"gdsiiguard_sta_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// pprof stays off unless opted in.
	resp2, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode == http.StatusOK {
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
