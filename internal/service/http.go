package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"gdsiiguard"
)

// NewHandler wraps a Manager in the guardd JSON API:
//
//	POST   /v1/jobs           submit a harden/explore/attack job
//	GET    /v1/jobs/{id}      job status, metrics and results
//	DELETE /v1/jobs/{id}      cancel a job
//	GET    /v1/jobs/{id}/def  hardened layout as DEF (harden jobs)
//	GET    /v1/jobs/{id}/gdsii  hardened layout as binary GDSII
//	GET    /v1/benchmarks     built-in benchmark designs
//	GET    /v1/stats          queue/worker/cache statistics
//	GET    /v1/healthz        process liveness
//	GET    /v1/readyz        drain-aware readiness (503 while shutting down)
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !m.Ready() {
			// Draining: in-flight jobs finish but new work must go
			// elsewhere, so readiness (and only readiness) flips.
			w.Header().Set("Retry-After", retryAfterSeconds)
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]any{"ready": false, "reason": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ready": true})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(m, w, r)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := lookupJob(m, w, r)
		if !ok {
			return
		}
		writeJSON(w, http.StatusOK, jobJSON(job.Snapshot()))
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, jobJSON(job.Snapshot()))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/def", func(w http.ResponseWriter, r *http.Request) {
		handleExport(m, w, r, "def")
	})
	mux.HandleFunc("GET /v1/jobs/{id}/gdsii", func(w http.ResponseWriter, r *http.Request) {
		handleExport(m, w, r, "gdsii")
	})
	mux.HandleFunc("GET /v1/benchmarks", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"benchmarks": m.Benchmarks()})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, statsJSON(m.Stats()))
	})
	return mux
}

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	// Kind is "harden", "explore" or "attack".
	Kind string `json:"kind"`
	// Benchmark names a built-in design; alternatively DEF carries a
	// placed DEF layout (with ClockPS and optional Assets).
	Benchmark string   `json:"benchmark,omitempty"`
	DEF       string   `json:"def,omitempty"`
	ClockPS   float64  `json:"clock_ps,omitempty"`
	Assets    []string `json:"assets,omitempty"`
	// Params configures harden jobs.
	Params *flowParamsJSON `json:"params,omitempty"`
	// Explore configures explore jobs.
	Explore *exploreJSON `json:"explore,omitempty"`
	// TimeoutSec overrides the server's per-job timeout.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

type flowParamsJSON struct {
	Op       string    `json:"op,omitempty"`
	LDAGridN int       `json:"lda_grid_n,omitempty"`
	LDAIters int       `json:"lda_iters,omitempty"`
	ScaleM   []float64 `json:"scale_m,omitempty"`
}

type exploreJSON struct {
	PopSize     int   `json:"pop_size,omitempty"`
	Generations int   `json:"generations,omitempty"`
	Parallelism int   `json:"parallelism,omitempty"`
	Seed        int64 `json:"seed,omitempty"`
}

// maxTimeoutSec is the largest timeout_sec a time.Duration can hold.
const maxTimeoutSec = float64(math.MaxInt64 / int64(time.Second))

func (r *submitRequest) toSpec() (Spec, error) {
	if r.TimeoutSec < 0 || r.TimeoutSec > maxTimeoutSec {
		return Spec{}, fmt.Errorf("service: timeout_sec %g out of range [0, %g]", r.TimeoutSec, maxTimeoutSec)
	}
	spec := Spec{
		Kind:      Kind(r.Kind),
		Benchmark: r.Benchmark,
		DEF:       []byte(r.DEF),
		ClockPS:   r.ClockPS,
		Assets:    r.Assets,
		Timeout:   time.Duration(r.TimeoutSec * float64(time.Second)),
	}
	if r.Params != nil {
		spec.Params = &gdsiiguard.FlowParams{
			Op:       gdsiiguard.Operator(r.Params.Op),
			LDAGridN: r.Params.LDAGridN,
			LDAIters: r.Params.LDAIters,
			ScaleM:   r.Params.ScaleM,
		}
	}
	if r.Explore != nil {
		spec.Explore = gdsiiguard.ExploreOptions{
			PopSize:     r.Explore.PopSize,
			Generations: r.Explore.Generations,
			Parallelism: r.Explore.Parallelism,
			Seed:        r.Explore.Seed,
		}
	}
	return spec, nil
}

// maxRequestBody bounds POST bodies; DEF uploads dominate legitimate
// request size, so the cap is generous but finite. A variable so tests can
// shrink it.
var maxRequestBody int64 = 32 << 20 // 32 MiB

// retryAfterSeconds is the client back-off hint sent with 503 responses.
const retryAfterSeconds = "5"

// decodeSubmit decodes a POST /v1/jobs body into a validated Spec. Unknown
// fields are rejected, so a client still sending a removed field gets a
// 400 instead of silently running a different job.
func decodeSubmit(r io.Reader) (Spec, error) {
	var req submitRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return Spec{}, fmt.Errorf("service: request body exceeds %d bytes", tooBig.Limit)
		}
		return Spec{}, fmt.Errorf("service: bad request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("service: bad request body: data after the job object")
	}
	spec, err := req.toSpec()
	if err != nil {
		return Spec{}, err
	}
	return spec, spec.Validate()
}

func handleSubmit(m *Manager, w http.ResponseWriter, r *http.Request) {
	// Bound the body before decoding: json.Decoder would otherwise read
	// an unbounded stream into memory.
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	spec, err := decodeSubmit(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	_, accepted, err := m.submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		// A full queue is the client's pace problem (429): this instance
		// is healthy, just saturated — back off and retry here. Draining
		// (below) is the server's problem (503): go elsewhere. Conflating
		// them makes load balancers eject saturated-but-healthy instances.
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrShuttingDown):
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, jobJSON(accepted))
}

func lookupJob(m *Manager, w http.ResponseWriter, r *http.Request) (*Job, bool) {
	job, err := m.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return nil, false
	}
	return job, true
}

func handleExport(m *Manager, w http.ResponseWriter, r *http.Request, format string) {
	job, ok := lookupJob(m, w, r)
	if !ok {
		return
	}
	if state := job.State(); state != StateDone {
		writeError(w, http.StatusConflict,
			fmt.Errorf("service: job %s is %s, artifacts need state %s", job.ID, state, StateDone))
		return
	}
	h := job.Hardened()
	if h == nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("service: job %s (%s) produced no layout artifact", job.ID, job.Spec.Kind))
		return
	}
	var err error
	switch format {
	case "def":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		err = h.WriteDEF(w)
	case "gdsii":
		w.Header().Set("Content-Type", "application/octet-stream")
		err = h.WriteGDSII(w)
	}
	if err != nil {
		// Headers are already out; the truncated body is the best signal.
		return
	}
}

// metricsJSON mirrors gdsiiguard.Metrics with stable lower-case keys.
type metricsJSON struct {
	Security  float64 `json:"security"`
	ERSites   int     `json:"er_sites"`
	ERTracks  float64 `json:"er_tracks"`
	TNSPs     float64 `json:"tns_ps"`
	WNSPs     float64 `json:"wns_ps"`
	PowerMW   float64 `json:"power_mw"`
	DRC       int     `json:"drc"`
	RuntimeMS float64 `json:"runtime_ms"`
}

func fromMetrics(m gdsiiguard.Metrics) metricsJSON {
	return metricsJSON{
		Security:  m.Security,
		ERSites:   m.ERSites,
		ERTracks:  m.ERTracks,
		TNSPs:     m.TNS,
		WNSPs:     m.WNS,
		PowerMW:   m.PowerMW,
		DRC:       m.DRC,
		RuntimeMS: float64(m.Runtime) / float64(time.Millisecond),
	}
}

type paretoPointJSON struct {
	Params  flowParamsJSON `json:"params"`
	Metrics metricsJSON    `json:"metrics"`
}

type explorationJSON struct {
	Front       []paretoPointJSON `json:"front"`
	Evaluations int               `json:"evaluations"`
	Knee        int               `json:"knee"`
	// Failures counts evaluations that failed and were degraded during
	// the exploration (see RunLog.Failures).
	Failures int `json:"failures,omitempty"`
	// Delta reports cross-chromosome evaluation reuse (operator memo
	// hits, routed nets); see gdsiiguard.DeltaStats.
	Delta gdsiiguard.DeltaStats `json:"delta"`
}

type attackJSON struct {
	Inserted     bool    `json:"inserted"`
	Reason       string  `json:"reason,omitempty"`
	Victim       string  `json:"victim,omitempty"`
	TapDistUM    float64 `json:"tap_dist_um,omitempty"`
	SlackAfterPS float64 `json:"slack_after_ps,omitempty"`
}

type jobResponse struct {
	ID         string           `json:"id"`
	Kind       string           `json:"kind"`
	State      string           `json:"state"`
	Error      string           `json:"error,omitempty"`
	ErrorClass string           `json:"error_class,omitempty"`
	Attempts   int              `json:"attempts,omitempty"`
	Submitted  string           `json:"submitted"`
	Started    string           `json:"started,omitempty"`
	Finished   string           `json:"finished,omitempty"`
	CacheHit   bool             `json:"cache_hit,omitempty"`
	Baseline   *metricsJSON     `json:"baseline,omitempty"`
	Hardened   *metricsJSON     `json:"hardened,omitempty"`
	Explore    *explorationJSON `json:"exploration,omitempty"`
	Attack     *attackJSON      `json:"attack,omitempty"`
}

func jobJSON(s Snapshot) jobResponse {
	out := jobResponse{
		ID:         s.ID,
		Kind:       string(s.Kind),
		State:      string(s.State),
		Error:      s.Error,
		ErrorClass: s.ErrorClass,
		Attempts:   s.Attempts,
		Submitted:  s.Submitted.UTC().Format(time.RFC3339Nano),
	}
	if !s.Started.IsZero() {
		out.Started = s.Started.UTC().Format(time.RFC3339Nano)
	}
	if !s.Finished.IsZero() {
		out.Finished = s.Finished.UTC().Format(time.RFC3339Nano)
	}
	if s.Result == nil {
		return out
	}
	res := s.Result
	out.CacheHit = res.CacheHit
	base := fromMetrics(res.Baseline)
	out.Baseline = &base
	if res.Hardened != nil {
		h := fromMetrics(*res.Hardened)
		out.Hardened = &h
	}
	if res.Exploration != nil {
		ex := &explorationJSON{
			Evaluations: res.Exploration.Evaluations,
			Knee:        res.Exploration.Knee,
			Failures:    res.Exploration.Failures,
			Delta:       res.Exploration.Delta,
			Front:       []paretoPointJSON{},
		}
		for _, pt := range res.Exploration.Front {
			ex.Front = append(ex.Front, paretoPointJSON{
				Params: flowParamsJSON{
					Op:       string(pt.Params.Op),
					LDAGridN: pt.Params.LDAGridN,
					LDAIters: pt.Params.LDAIters,
					ScaleM:   pt.Params.ScaleM,
				},
				Metrics: fromMetrics(pt.Metrics),
			})
		}
		out.Explore = ex
	}
	if res.Attack != nil {
		out.Attack = &attackJSON{
			Inserted:     res.Attack.Inserted,
			Reason:       res.Attack.Reason,
			Victim:       res.Attack.Victim,
			TapDistUM:    res.Attack.TapDistUM,
			SlackAfterPS: res.Attack.SlackAfterPS,
		}
	}
	return out
}

type statsResponse struct {
	Workers         int            `json:"workers"`
	WorkersBusy     int            `json:"workers_busy"`
	PeakBusy        int            `json:"peak_busy"`
	QueueDepth      int            `json:"queue_depth"`
	QueueCapacity   int            `json:"queue_capacity"`
	JobsByState     map[string]int `json:"jobs_by_state"`
	PanicsRecovered uint64         `json:"panics_recovered"`
	CacheEntries    int            `json:"cache_entries"`
	CacheHits       uint64         `json:"cache_hits"`
	CacheMisses     uint64         `json:"cache_misses"`
	CacheHitRate    float64        `json:"cache_hit_rate"`
}

func statsJSON(s Stats) statsResponse {
	out := statsResponse{
		Workers:         s.Workers,
		WorkersBusy:     s.WorkersBusy,
		PeakBusy:        s.PeakBusy,
		QueueDepth:      s.QueueDepth,
		QueueCapacity:   s.QueueCapacity,
		JobsByState:     make(map[string]int),
		PanicsRecovered: s.PanicsRecovered,
		CacheEntries:    s.Cache.Entries,
		CacheHits:       s.Cache.Hits,
		CacheMisses:     s.Cache.Misses,
		CacheHitRate:    s.Cache.HitRate(),
	}
	for state, n := range s.JobsByState {
		out.JobsByState[string(state)] = n
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
