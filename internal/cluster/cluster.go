// Package cluster distributes the NSGA-II Pareto exploration across
// sharded guardd nodes with an island model: a coordinator partitions an
// exploration's population into islands, consistent-hashes the design onto
// worker nodes (so a design's islands land where its baseline is already
// cached), fans island epochs out over the node transport, migrates elite
// chromosomes between islands on a ring after every epoch, and merges the
// per-island Pareto fronts (nsga2.MergeFronts) into the final front.
//
// Two transports implement the same Node interface: Worker executes
// islands in-process (the single-binary "cluster in one process" mode,
// deterministic and race-testable), and HTTPNode speaks the guardd cluster
// JSON API to a remote worker (NewWorkerHandler serves the same Worker
// over HTTP). Because flow evaluations are deterministic for a given seed,
// the merged front depends only on the exploration spec — never on which
// node ran an island or how goroutines interleaved — so the in-process
// cluster reproduces exactly what a multi-node deployment computes.
//
// Failure semantics: a worker-side island failure keeps its typed
// stage/class taxonomy (core.FlowError) across the HTTP boundary; the
// coordinator retries transiently failed islands on another node, degrades
// permanently failed islands (the exploration continues on the survivors,
// with an IslandFailure record in the result), and errors out only when
// every island of an epoch is lost.
package cluster

import (
	"crypto/sha256"
	"fmt"
	"time"

	"gdsiiguard/internal/core"
	"gdsiiguard/internal/nsga2"
)

// DesignRef names the design an island evaluates, in the same terms as the
// service job API: exactly one of Benchmark or DEF.
type DesignRef struct {
	// Benchmark is a built-in benchmark design name.
	Benchmark string `json:"benchmark,omitempty"`
	// DEF is an uploaded placed DEF layout (base64 across the wire), with
	// its clock period and security-critical instance names.
	DEF     []byte   `json:"def,omitempty"`
	ClockPS float64  `json:"clock_ps,omitempty"`
	Assets  []string `json:"assets,omitempty"`
}

// Validate checks the reference before it is dispatched or executed.
func (r DesignRef) Validate() error {
	if (r.Benchmark == "") == (len(r.DEF) == 0) {
		return fmt.Errorf("cluster: exactly one of Benchmark or DEF must be set")
	}
	if len(r.DEF) > 0 && r.ClockPS <= 0 {
		return fmt.Errorf("cluster: DEF designs need a positive ClockPS")
	}
	return nil
}

// Key is the design's consistent-hashing and cache identity. DEF designs
// are keyed by a content hash of the layout bytes (plus clock and assets),
// so two different layouts can never share a key — the key decides which
// cached baseline a worker evaluates against, and a collision would
// silently evaluate islands against the wrong design.
func (r DesignRef) Key() string {
	if r.Benchmark != "" {
		return "bench:" + r.Benchmark
	}
	sum := sha256.Sum256(r.DEF)
	return fmt.Sprintf("def:%x:%g:%v", sum[:16], r.ClockPS, r.Assets)
}

// IslandRequest is one island epoch: run Generations NSGA-II generations
// of a PopSize population seeded with SeedPop (empty on the first epoch)
// against Design, under Seed.
type IslandRequest struct {
	Design DesignRef `json:"design"`
	// Island and Epoch locate the request in the exploration (telemetry
	// and error attribution; the worker is stateless across epochs).
	Island int `json:"island"`
	Epoch  int `json:"epoch"`
	// PopSize and Generations size this epoch's run.
	PopSize     int `json:"pop_size"`
	Generations int `json:"generations"`
	// Seed drives the island's stochastic choices; the driver derives one
	// per (exploration seed, island, epoch), so results are reproducible
	// regardless of node assignment.
	Seed int64 `json:"seed"`
	// SeedPop is the island's continuation population: last epoch's final
	// population with the neighbor island's migrated elites at the head.
	SeedPop []core.Params `json:"seed_pop,omitempty"`
}

// Validate checks the request on the worker side before execution.
func (r IslandRequest) Validate() error {
	if err := r.Design.Validate(); err != nil {
		return err
	}
	if r.PopSize < 2 || r.PopSize > 1024 {
		return fmt.Errorf("cluster: island pop_size %d out of range [2, 1024]", r.PopSize)
	}
	if r.Generations < 1 || r.Generations > 4096 {
		return fmt.Errorf("cluster: island generations %d out of range [1, 4096]", r.Generations)
	}
	return nil
}

// IslandResult is one executed island epoch.
type IslandResult struct {
	// Island echoes the request; Node is the executing node's ID.
	Island int    `json:"island"`
	Node   string `json:"node"`
	// Population is the final population's chromosomes (next epoch's
	// continuation seed).
	Population []core.Params `json:"population"`
	// Front is the island-local feasible Pareto front over every
	// evaluation of this epoch.
	Front []nsga2.Individual `json:"front"`
	// Evaluations and CacheHits mirror the island's RunLog counters.
	Evaluations int `json:"evaluations"`
	CacheHits   int `json:"cache_hits"`
	// Failures are the epoch's degraded evaluations (typed stage/class).
	Failures []nsga2.EvalFailure `json:"failures,omitempty"`
	// Delta aggregates the epoch's delta-evaluation reuse counters
	// (operator memo/arena hits, routed nets) across the island's
	// evaluator arenas.
	Delta core.DeltaStats `json:"delta"`
	// GenSeconds is the mean per-generation wall time of this epoch, the
	// load signal behind the coordinator's dispatch.
	GenSeconds float64 `json:"gen_seconds"`
}

// ExploreSpec is a distributed exploration request at the coordinator.
type ExploreSpec struct {
	Design DesignRef
	// Islands is the number of islands (default DriverOptions.Islands).
	Islands int
	// PopSize is the per-island population size (default
	// DriverOptions.PopSize).
	PopSize int
	// Generations is the total generation count per island across all
	// epochs (default DriverOptions.Generations).
	Generations int
	// Seed drives every island's stochastic choices (default 1).
	Seed int64
	// MigrationInterval and MigrationCount override the driver defaults
	// when positive.
	MigrationInterval int
	MigrationCount    int
	// Checkpoint, when set, is invoked synchronously after every completed
	// epoch (migration included) with the coordinator's full continuation
	// state; an error aborts the exploration. Excluded from serialization —
	// persistence is the caller's concern.
	Checkpoint func(*EpochCheckpoint) error `json:"-"`
	// Resume continues an interrupted exploration at Resume.Epoch+1. The
	// checkpoint must match the spec's resolved seed and island count;
	// Explore rejects a mismatch.
	Resume *EpochCheckpoint `json:"-"`
}

// IslandFailure records an island lost during a distributed exploration:
// the coordinator degraded to the surviving islands instead of failing the
// job, and this record preserves the worker-side failure's typed taxonomy.
type IslandFailure struct {
	Island int    `json:"island"`
	Node   string `json:"node,omitempty"`
	Epoch  int    `json:"epoch"`
	// Stage and Class carry the core error taxonomy across the cluster
	// boundary (empty stage for non-flow failures such as transport loss).
	Stage core.Stage    `json:"stage,omitempty"`
	Class core.ErrClass `json:"class,omitempty"`
	Err   string        `json:"error"`
}

// ExploreResult is the coordinator-side outcome of a distributed
// exploration.
type ExploreResult struct {
	// Front is the merged, deduplicated Pareto front across all islands
	// and epochs.
	Front []nsga2.Individual
	// Islands is the island count the exploration started with; Epochs the
	// executed epoch count.
	Islands int
	Epochs  int
	// Evaluations and CacheHits aggregate the island RunLog counters;
	// Failures counts degraded evaluations inside surviving islands.
	Evaluations int
	CacheHits   int
	Failures    int
	// Migrations counts elite chromosomes migrated between islands.
	Migrations int
	// Delta aggregates delta-evaluation reuse counters across every
	// island epoch that completed.
	Delta core.DeltaStats
	// Degraded records islands lost mid-run (empty when every island
	// finished every epoch).
	Degraded []IslandFailure
	// Elapsed is the exploration's wall time at the coordinator.
	Elapsed time.Duration
}
