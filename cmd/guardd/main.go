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
//	       [-coordinator] [-worker] [-join URL] [-advertise URL]
//	       [-local-islands N] [-islands 4] [-migration-interval 2]
//	       [-migration-count 2]
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
// Cluster mode distributes island-model NSGA-II explorations across
// guardd nodes:
//
//   - `guardd -coordinator` accepts worker registrations on
//     POST /v1/cluster/join and fans explore jobs out island-by-island,
//     merging the per-island Pareto fronts. `-local-islands N` adds N
//     in-process workers, so `-coordinator -local-islands 4` is a whole
//     cluster in one binary (the same code path the distributed setup
//     runs, minus HTTP).
//   - `guardd -worker -join http://coordinator:8477 -advertise
//     http://me:8478` serves island epochs on POST /v1/cluster/island and
//     registers itself with the coordinator, retrying until it succeeds.
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
	"runtime"
	"syscall"
	"time"

	"gdsiiguard/internal/cluster"
	"gdsiiguard/internal/durable"
	"gdsiiguard/internal/fault"
	"gdsiiguard/internal/nsga2"
	"gdsiiguard/internal/obs"
	"gdsiiguard/internal/service"
	"gdsiiguard/internal/sta"
)

// clusterConfig carries the parsed cluster-mode flags.
type clusterConfig struct {
	coordinator  bool
	worker       bool
	join         string
	advertise    string
	nodeID       string
	localIslands int

	islands           int
	migrationInterval int
	migrationCount    int
	probeInterval     time.Duration
}

func main() {
	var (
		addr         = flag.String("addr", ":8477", "listen address")
		workers      = flag.Int("workers", 0, "worker pool size (0: NumCPU)")
		queue        = flag.Int("queue", 64, "submission queue depth")
		jobTimeout   = flag.Duration("job-timeout", 15*time.Minute, "default per-job timeout")
		cacheSize    = flag.Int("cache", 8, "design cache capacity")
		retention    = flag.Int("retention", 256, "finished jobs kept in the result store")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "graceful-shutdown drain budget")
		maxAttempts  = flag.Int("max-attempts", 2, "execution attempts per job (transient failures only)")
		retryBackoff = flag.Duration("retry-backoff", 250*time.Millisecond, "base delay before a transient-failure retry")
		withPprof    = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
		logLevel     = flag.String("log-level", "info", "structured log level (debug, info, warn, error)")
		stateDir     = flag.String("state-dir", "", "durable state directory: jobs and exploration checkpoints survive restarts (empty: in-memory only)")
		staWorkers   = flag.Int("sta-workers", 0, "level-parallel STA workers per evaluation (0: GOMAXPROCS, 1: sequential)")
	)
	var cc clusterConfig
	flag.BoolVar(&cc.coordinator, "coordinator", false, "run as cluster coordinator (fan explore jobs out to joined workers)")
	flag.BoolVar(&cc.worker, "worker", false, "serve cluster island epochs on POST /v1/cluster/island")
	flag.StringVar(&cc.join, "join", "", "coordinator URL to register with (implies -worker)")
	flag.StringVar(&cc.advertise, "advertise", "", "this node's reachable base URL, sent on -join")
	flag.StringVar(&cc.nodeID, "node-id", "", "stable node identity (default: hostname + addr)")
	flag.IntVar(&cc.localIslands, "local-islands", 0, "in-process worker nodes on the coordinator (single-binary cluster)")
	flag.IntVar(&cc.islands, "islands", 4, "default island count for cluster explorations")
	flag.IntVar(&cc.migrationInterval, "migration-interval", 2, "generations per island between elite migrations")
	flag.IntVar(&cc.migrationCount, "migration-count", 2, "elite chromosomes migrated to the ring neighbor per epoch")
	flag.DurationVar(&cc.probeInterval, "probe-interval", 5*time.Second, "coordinator health-probe period")
	flag.Parse()
	sta.SetWorkers(*staWorkers)
	if err := setupLogging(*logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "guardd:", err)
		os.Exit(2)
	}
	if cc.join != "" {
		cc.worker = true
		if cc.advertise == "" {
			fmt.Fprintln(os.Stderr, "guardd: -join requires -advertise (the URL the coordinator reaches this node at)")
			os.Exit(2)
		}
	}
	if cc.nodeID == "" {
		host, _ := os.Hostname()
		cc.nodeID = host + *addr
	}
	// Crash-harness hook: GDSIIGUARD_CRASH_POINT arms a SIGKILL at a named
	// fault point, so the kill-and-restart recovery tests exercise the same
	// binary operators deploy. A no-op unless the variable is set.
	if _, err := fault.ArmCrashFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "guardd:", err)
		os.Exit(2)
	}
	cfg := service.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		JobTimeout:   *jobTimeout,
		CacheSize:    *cacheSize,
		Retention:    *retention,
		MaxAttempts:  *maxAttempts,
		RetryBackoff: *retryBackoff,
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
	if err := run(*addr, *withPprof, cfg, cc, *drainTimeout); err != nil {
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
// metrics at /metrics, the cluster endpoints in coordinator/worker mode
// and, opt-in, the pprof handlers.
func newMux(mgr *service.Manager, withPprof bool, workerH, coordH http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/", service.NewHandler(mgr))
	mux.Handle("GET /metrics", obs.Default().Handler())
	if workerH != nil {
		mux.Handle("POST /v1/cluster/island", workerH)
	}
	if coordH != nil {
		mux.Handle("POST /v1/cluster/join", coordH)
		mux.Handle("GET /v1/cluster/nodes", coordH)
	}
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func run(addr string, withPprof bool, cfg service.Config, cc clusterConfig, drainTimeout time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var workerH, coordH http.Handler
	if cc.worker {
		workerH = cluster.NewWorkerHandler(cluster.NewWorker(cc.nodeID, cluster.WorkerOptions{}))
	}
	if cc.coordinator {
		ms := cluster.NewMembership()
		// Local islands share one evaluation budget: node-wide admission
		// control, and cluster-wide in the single-binary case.
		if cc.localIslands > 0 {
			slots := cfg.Workers
			if slots <= 0 {
				slots = runtime.NumCPU()
			}
			budget := nsga2.NewEvalBudget(slots)
			for i := 0; i < cc.localIslands; i++ {
				ms.Add(cluster.NewWorker(fmt.Sprintf("%s/local-%d", cc.nodeID, i),
					cluster.WorkerOptions{Budget: budget}))
			}
		}
		ms.StartProbing(ctx, cc.probeInterval)
		cfg.Cluster = cluster.NewDriver(ms, cluster.DriverOptions{
			Islands:           cc.islands,
			MigrationInterval: cc.migrationInterval,
			MigrationCount:    cc.migrationCount,
		})
		coordH = cluster.NewCoordinatorHandler(ms)
	}

	mgr := service.New(cfg)
	srv := &http.Server{
		Addr:              addr,
		Handler:           newMux(mgr, withPprof, workerH, coordH),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		mode := "standalone"
		switch {
		case cc.coordinator && cc.worker:
			mode = "coordinator+worker"
		case cc.coordinator:
			mode = "coordinator"
		case cc.worker:
			mode = "worker"
		}
		log.Printf("guardd: listening on %s (%d workers, queue %d, mode %s)",
			addr, mgr.Stats().Workers, cfg.QueueDepth, mode)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	if cc.join != "" {
		go func() {
			if err := cluster.JoinCoordinator(ctx, cc.join, cc.nodeID, cc.advertise); err != nil {
				log.Printf("guardd: cluster join failed: %v", err)
				return
			}
			log.Printf("guardd: joined coordinator %s as %s", cc.join, cc.nodeID)
		}()
	}

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
