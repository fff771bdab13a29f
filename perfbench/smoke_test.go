package main

import (
	"context"
	"testing"

	"gdsiiguard/internal/service"
)

// runSmoke drives one workload through execute, untraced then traced,
// requires a complete, correct result with every metric printed, and
// returns the traced run's per-layer metrics.
func runSmoke(t *testing.T, name string, run func(*report, *Tracer) error) map[string]float64 {
	t.Helper()
	var layer map[string]float64
	for _, traced := range []bool{false, true} {
		r, err := execute(name, run, 1, 1, traced)
		if err != nil {
			t.Fatalf("%s traced=%v: %v", name, traced, err)
		}
		if len(r.Failures) > 0 {
			t.Fatalf("%s traced=%v: output checks failed: %v", name, traced, r.Failures)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		for _, m := range want {
			if _, ok := r.Metrics[m.Name]; !ok {
				t.Errorf("%s traced=%v: metric %s missing", name, traced, m.Name)
			}
		}
		if !traced && r.Metrics["unit_p50_s"].Value <= 0 {
			t.Errorf("%s: unit_p50_s = %v", name, r.Metrics["unit_p50_s"].Value)
		}
		layer = r.Layer
	}
	return layer
}

func TestSmokeExplore(t *testing.T) {
	if testing.Short() {
		t.Skip("explores a design")
	}
	spec := exploreSpec{Design: "PRESENT", Pop: 4, Gens: 1, Ring: []int64{1}, WarmPop: 2, WarmGens: 1, CycleSeconds: 20}
	layer := runSmoke(t, "explore", func(r *report, tr *Tracer) error {
		if tr != nil {
			return traceExplore(spec, r, tr)
		}
		return runExplore(spec, r)
	})
	if layer["core.eval_s"] <= 0 || layer["route.route_s"] <= 0 || layer["nsga2.generation_s"] <= 0 {
		t.Errorf("traced explore measured no evaluation, route or generation: %v", layer)
	}
}

func TestSmokeSoCECO(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a stamped SoC")
	}
	spec, err := socDefault()
	if err != nil {
		t.Fatal(err)
	}
	spec.Design.Name, spec.Design.TilesX, spec.Design.TilesY = "SoC_3x3", 3, 3
	spec.SetupReps = 1
	layer := runSmoke(t, "soc_eco", func(r *report, tr *Tracer) error { return runSoC(spec, r, tr) })
	if layer["route.warm_s"] <= 0 || layer["sta.delta_s"] <= 0 || layer["sta.level_speedup"] <= 0 {
		t.Errorf("traced soc_eco measured no warm route, delta STA or STA speedup: %v", layer)
	}
}

// TestSmokeService runs two jobs — a harden with its artifact, and an
// attack — through a manager at the shipped defaults and checks them
// against the sequential references.
func TestSmokeService(t *testing.T) {
	if testing.Short() {
		t.Skip("hardens a design")
	}
	spec := serviceSpec{Designs: []string{"PRESENT"}, Clients: 1, HardenPerAttack: 1, SetupReps: 1}
	r := &report{Layer: map[string]float64{}}
	refs, err := serviceReferences(spec, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := startManager(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	outs := []jobOutcome{
		runJob(m, jobKey{"PRESENT", service.KindHarden}),
		runJob(m, jobKey{"PRESENT", service.KindAttack}),
	}
	checkJobs(outs, refs, r)
	if len(r.Failures) > 0 {
		t.Fatal(r.Failures)
	}
	if outs[0].hash == "" || outs[1].attack == nil {
		t.Fatalf("harden artifact %q, attack %+v", outs[0].hash, outs[1].attack)
	}
	// A wrong reference must be caught.
	bad := refs["PRESENT"]
	bad.hash = "0"
	checkJobs(outs[:1], map[string]reference{"PRESENT": bad}, r)
	if len(r.Failures) != 1 {
		t.Fatalf("a mismatched artifact hash was not reported: %v", r.Failures)
	}
}
