package nsga2

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gdsiiguard/internal/core"
)

// stripRuntime zeroes the one legitimately non-deterministic field (wall
// time of the producing evaluation) plus the rank/crowding scratch, which
// is internal working state recomputed at the top of every generation —
// a resume that lands after the final generation never recomputes it.
func stripRuntime(ins []Individual) []Individual {
	out := append([]Individual(nil), ins...)
	for i := range out {
		out[i].Metrics.Runtime = 0
		out[i].rank = 0
		out[i].crowding = 0
	}
	return out
}

// runlogFingerprint reduces a RunLog, plus the run's final population, to
// its deterministic content.
type runlogFingerprint struct {
	Front, Evaluations, Final []Individual
	Generations, CacheHits    int
	Failures                  []EvalFailure
}

func fingerprint(log *RunLog, final []Individual) runlogFingerprint {
	return runlogFingerprint{
		Front:       stripRuntime(log.Front),
		Evaluations: stripRuntime(log.Evaluations),
		Final:       stripRuntime(final),
		Generations: log.Generations,
		CacheHits:   log.CacheHits,
		Failures:    log.Failures,
	}
}

// TestResumeBitIdentical is the tentpole's golden test: interrupt the
// optimizer at every generation boundary (via its own checkpoints) and
// prove that resuming from each checkpoint reproduces the uninterrupted
// run's full trajectory — front, evaluation trace, final population,
// generation count and cache-hit accounting — bit for bit.
func TestResumeBitIdentical(t *testing.T) {
	base := buildBase(t, 5, 20, 5)
	opt := Options{PopSize: 8, Generations: 4, Seed: 7, Parallelism: 4}

	var cps []*Checkpoint
	golden, err := Optimize(base, withCapture(opt, &cps))
	if err != nil {
		t.Fatalf("golden Optimize: %v", err)
	}
	if len(cps) != golden.Generations+1 {
		t.Fatalf("captured %d checkpoints, want %d (one per generation incl. gen 0)",
			len(cps), golden.Generations+1)
	}
	want := fingerprint(golden, finalPop(nil, cps))

	for _, cp := range cps {
		cp := cp
		t.Run(fmt.Sprintf("resume-from-gen-%d", cp.Generation), func(t *testing.T) {
			// Round-trip through the serialized form the service persists.
			blob, err := cp.Marshal()
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			restored, err := UnmarshalCheckpoint(blob)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			var rcps []*Checkpoint
			ropt := withCapture(opt, &rcps)
			ropt.Resume = restored
			resumed, err := Optimize(base, ropt)
			if err != nil {
				t.Fatalf("resumed Optimize: %v", err)
			}
			if got := fingerprint(resumed, finalPop(restored, rcps)); !reflect.DeepEqual(got, want) {
				t.Errorf("resumed run from generation %d diverged from golden run\n got: %+v\nwant: %+v",
					cp.Generation, got, want)
			}
		})
	}
}

// finalPop is a run's final population: the last checkpoint it emitted, or
// the checkpoint it resumed from when it ran no further generation.
func finalPop(resume *Checkpoint, cps []*Checkpoint) []Individual {
	if len(cps) > 0 {
		return cps[len(cps)-1].Population
	}
	return resume.Population
}

// withCapture clones opt with a Checkpoint hook that collects every
// emitted checkpoint (checkpoints are already deep copies).
func withCapture(opt Options, out *[]*Checkpoint) Options {
	opt.Checkpoint = func(cp *Checkpoint) error {
		*out = append(*out, cp)
		return nil
	}
	return opt
}

// A run that converges early (patience) must stop at the same generation
// when resumed from its final checkpoint instead of running further.
func TestResumeReproducesPatienceBreak(t *testing.T) {
	base := buildBase(t, 4, 12, 5)
	opt := Options{PopSize: 8, Generations: 12, Patience: 1, Seed: 3, Parallelism: 4}

	var cps []*Checkpoint
	golden, err := Optimize(base, withCapture(opt, &cps))
	if err != nil {
		t.Fatal(err)
	}
	if golden.Generations >= 12 {
		t.Fatalf("run went all %d generations: the fixture no longer stops on patience", golden.Generations)
	}
	t.Logf("stopped on patience after %d generations", golden.Generations)
	last := cps[len(cps)-1]
	ropt := opt
	ropt.Resume = last
	resumed, err := Optimize(base, ropt)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Generations != golden.Generations {
		t.Errorf("resumed generations = %d, want %d (the converged run must not continue)",
			resumed.Generations, golden.Generations)
	}
	if !reflect.DeepEqual(fingerprint(resumed, nil), fingerprint(golden, nil)) {
		t.Error("resume from a converged checkpoint diverged from the golden run")
	}
}

// Failed cache entries survive the JSON round trip with their +Inf
// violation re-inflated, so a resumed run neither re-evaluates them out of
// order nor treats them as feasible.
func TestCheckpointRoundTripsFailedEntries(t *testing.T) {
	cp := &Checkpoint{
		Seed:    1,
		PopSize: 8,
		Population: []Individual{
			{Params: core.DefaultParams(3), Feasible: true},
		},
		Cache: []Individual{
			{Params: core.DefaultParams(3), Feasible: true},
			{Params: core.Params{Op: core.LDA, LDAGridN: 4, LDAIters: 2, ScaleM: []float64{1.2, 1, 1}},
				Failed: true, Violation: math.Inf(1)},
		},
	}
	blob, err := cp.Marshal()
	if err != nil {
		t.Fatalf("Marshal with Inf violation: %v", err)
	}
	got, err := UnmarshalCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Marshal sanitized the +Inf away; restore must re-inflate it when the
	// checkpoint is loaded into a run.
	ev := &evaluator{cache: map[string]*Individual{}, log: &RunLog{}}
	got.restore(ev, &frontTracker{})
	failedKey := cp.Cache[1].Params.Key()
	entry := ev.cache[failedKey]
	if entry == nil || !entry.Failed || !math.IsInf(entry.Violation, 1) {
		t.Fatalf("restored failed cache entry = %+v, want Failed with +Inf violation", entry)
	}
}

func TestResumeRejectsMismatchedOptions(t *testing.T) {
	base := buildBase(t, 3, 8, 5)
	opt := Options{PopSize: 8, Generations: 2, Seed: 5, Parallelism: 2}
	var cps []*Checkpoint
	if _, err := Optimize(base, withCapture(opt, &cps)); err != nil {
		t.Fatal(err)
	}
	cp := cps[len(cps)-1]

	for name, mutate := range map[string]func(*Options){
		"seed":     func(o *Options) { o.Seed = 6 },
		"pop size": func(o *Options) { o.PopSize = 12 },
	} {
		bad := opt
		mutate(&bad)
		bad.Resume = cp
		if _, err := Optimize(base, bad); err == nil {
			t.Errorf("resume with mismatched %s accepted", name)
		}
	}
}

func TestCheckpointErrorAbortsRun(t *testing.T) {
	base := buildBase(t, 3, 8, 5)
	boom := errors.New("disk gone")
	opt := Options{PopSize: 8, Generations: 3, Seed: 2, Parallelism: 2,
		Checkpoint: func(cp *Checkpoint) error {
			if cp.Generation >= 1 {
				return boom
			}
			return nil
		}}
	_, err := OptimizeCtx(context.Background(), base, opt)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the checkpoint failure", err)
	}
}

// The counting source must not perturb the stream: a run under the old
// direct source and one under the counting wrapper draw identical values.
func TestCountingSourcePreservesStream(t *testing.T) {
	direct := rand.New(rand.NewSource(42))
	wrapped := &countingSource{src: rand.NewSource(42)}
	r := rand.New(wrapped)
	for i := 0; i < 1000; i++ {
		switch i % 3 {
		case 0:
			if a, b := direct.Float64(), r.Float64(); a != b {
				t.Fatalf("Float64 diverged at draw %d: %v vs %v", i, a, b)
			}
		case 1:
			if a, b := direct.Intn(97), r.Intn(97); a != b {
				t.Fatalf("Intn diverged at draw %d: %v vs %v", i, a, b)
			}
		case 2:
			if a, b := direct.Int63(), r.Int63(); a != b {
				t.Fatalf("Int63 diverged at draw %d: %v vs %v", i, a, b)
			}
		}
	}
	if wrapped.draws == 0 {
		t.Fatal("counting source recorded no draws")
	}
	// skip() must land a fresh source on the same position.
	replayed := &countingSource{src: rand.NewSource(42)}
	replayed.skip(wrapped.draws)
	if a, b := rand.New(wrapped).Int63(), rand.New(replayed).Int63(); a != b {
		t.Fatalf("skip() landed on a different position: %v vs %v", a, b)
	}
}

// TestIndividualSerializationRoundTrip guards the JSON form individuals take
// in checkpoints and job results: everything a resumed run consumes must
// survive the round trip.
func TestIndividualSerializationRoundTrip(t *testing.T) {
	in := Individual{
		Params:     core.Params{Op: core.LDA, LDAGridN: 16, LDAIters: 2, ScaleM: []float64{1.2, 1.5, 1.0}},
		Metrics:    core.Metrics{Security: 0.73, ERSites: 42, ERTracks: 11.5, TNS: -123.25, WNS: -7.5, PowerMW: 3.25, DRC: 2},
		Feasible:   true,
		Violation:  0,
		Generation: 3,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out Individual
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Params.Key() != in.Params.Key() {
		t.Errorf("param key changed: %q -> %q", in.Params.Key(), out.Params.Key())
	}
	if out.Objectives() != in.Objectives() {
		t.Errorf("objectives changed: %v -> %v", in.Objectives(), out.Objectives())
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the individual:\n in: %+v\nout: %+v", in, out)
	}
}
