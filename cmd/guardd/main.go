// Command guardd serves the GDSII-Guard hardening flows as a long-running
// HTTP service: clients submit harden/explore/attack jobs against built-in
// benchmarks or uploaded DEF layouts, poll job status, and download the
// hardened DEF/GDSII artifacts.
//
// Usage:
//
//	guardd [-addr :8477] [-workers N] [-queue 64] [-job-timeout 15m]
//	       [-cache 8] [-retention 256] [-pprof] [-log-level info]
//	       [-state-dir DIR] [-sta-workers N]
//
// Endpoints (JSON unless noted):
//
//	POST   /v1/jobs             submit a job
//	GET    /v1/jobs/{id}        job status + metrics
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/jobs/{id}/def    hardened DEF (text)
//	GET    /v1/jobs/{id}/gdsii  hardened GDSII (binary)
//	GET    /v1/benchmarks       built-in designs
//	GET    /v1/stats            queue/worker/cache statistics
//	GET    /v1/healthz          process liveness
//	GET    /v1/readyz           drain-aware readiness
//	GET    /metrics             Prometheus text-format process metrics
//
// Explore jobs run one NSGA-II population in-process (§III-D of the
// paper); pop_size, generations and parallelism are bounded at submit.
//
// With -pprof, the net/http/pprof profiling handlers are additionally
// served under /debug/pprof/. Structured logs (job lifecycle, optimizer
// generations at -log-level debug) go to stderr in logfmt.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the server stops accepting
// requests (readiness flips to 503 while liveness stays 200), queued and
// running jobs drain up to -drain-timeout, then the process exits.
//
// With -state-dir, guardd is crash-safe: job specs, state transitions,
// exploration checkpoints and results are written to per-job CRC-checked
// write-ahead logs under the directory, and a restart with the same
// -state-dir replays them — finished jobs reappear in the result store and
// interrupted jobs re-queue, resuming explorations from their last durable
// checkpoint.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gdsiiguard/internal/durable"
	"gdsiiguard/internal/fault"
	"gdsiiguard/internal/obs"
	"gdsiiguard/internal/service"
	"gdsiiguard/internal/sta"
)

func main() {
	var (
		addr         = flag.String("addr", ":8477", "listen address")
		workers      = flag.Int("workers", 0, "worker pool size (0: NumCPU)")
		queue        = flag.Int("queue", 64, "submission queue depth")
		jobTimeout   = flag.Duration("job-timeout", 15*time.Minute, "default per-job timeout")
		cacheSize    = flag.Int("cache", 8, "design cache capacity")
		retention    = flag.Int("retention", 256, "finished jobs kept in the result store")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "graceful-shutdown drain budget")
		withPprof    = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
		logLevel     = flag.String("log-level", "info", "structured log level (debug, info, warn, error)")
		stateDir     = flag.String("state-dir", "", "durable state directory: jobs and exploration checkpoints survive restarts (empty: in-memory only)")
		staWorkers   = flag.Int("sta-workers", 0, "level-parallel STA workers per evaluation (0: GOMAXPROCS, 1: sequential)")
	)
	flag.Parse()
	sta.SetWorkers(*staWorkers)
	if err := setupLogging(*logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "guardd:", err)
		os.Exit(2)
	}
	// Crash-harness hook: GDSIIGUARD_CRASH_POINT arms a SIGKILL at a named
	// fault point, so the kill-and-restart recovery tests exercise the same
	// binary operators deploy. A no-op unless the variable is set.
	if _, err := fault.ArmCrashFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "guardd:", err)
		os.Exit(2)
	}
	cfg := service.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		JobTimeout: *jobTimeout,
		CacheSize:  *cacheSize,
		Retention:  *retention,
	}
	if *stateDir != "" {
		st, err := durable.Open(*stateDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "guardd:", err)
			os.Exit(1)
		}
		defer st.Close()
		cfg.Store = st
	}
	if err := run(*addr, *withPprof, cfg, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "guardd:", err)
		os.Exit(1)
	}
}

// setupLogging routes the library's structured logs (discarded by default)
// to stderr at the requested level.
func setupLogging(level string) error {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	obs.SetLogger(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))
	return nil
}

// newMux wraps the service API with the operational endpoints: Prometheus
// metrics at /metrics and, opt-in, the pprof handlers.
func newMux(mgr *service.Manager, withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/", service.NewHandler(mgr))
	mux.Handle("GET /metrics", obs.Default().Handler())
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func run(addr string, withPprof bool, cfg service.Config, drainTimeout time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	mgr := service.New(cfg)
	srv := &http.Server{
		Addr:              addr,
		Handler:           newMux(mgr, withPprof),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("guardd: listening on %s (%d workers, queue %d)",
			addr, mgr.Stats().Workers, cfg.QueueDepth)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Printf("guardd: shutting down, draining jobs (budget %v)", drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("guardd: http shutdown: %v", err)
	}
	if err := mgr.Shutdown(drainCtx); err != nil {
		log.Printf("guardd: drain incomplete, running jobs cancelled: %v", err)
	}
	log.Printf("guardd: bye")
	return <-errc
}
