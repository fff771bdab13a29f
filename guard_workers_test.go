package gdsiiguard

import (
	"testing"

	"gdsiiguard/internal/nsga2"
	"gdsiiguard/internal/sta"
)

// TestBenchmarkFrontUnchangedByWorkers is the end-to-end golden check for
// the intra-evaluation parallel path: a full exploration with
// level-parallel STA at 4 workers must reproduce the sequential
// exploration's Pareto front bit-for-bit — same evaluation count, same
// front, same metrics. Worker count is a throughput knob, never a results
// knob.
func TestBenchmarkFrontUnchangedByWorkers(t *testing.T) {
	designs := []string{"PRESENT"}
	if !testing.Short() {
		designs = append(designs, "openMSP430_1")
	}
	defer sta.SetWorkers(0)
	for _, name := range designs {
		name := name
		t.Run(name, func(t *testing.T) {
			d, err := LoadBenchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			opt := nsga2.Options{PopSize: 8, Generations: 3, Seed: 1}

			sta.SetWorkers(4)
			par, err := nsga2.Optimize(d.base, opt)
			if err != nil {
				t.Fatalf("parallel Optimize: %v", err)
			}
			sta.SetWorkers(1)
			seq, err := nsga2.Optimize(d.base, opt)
			if err != nil {
				t.Fatalf("sequential Optimize: %v", err)
			}

			if len(par.Evaluations) != len(seq.Evaluations) {
				t.Fatalf("evaluation counts differ: %d != %d", len(par.Evaluations), len(seq.Evaluations))
			}
			if len(par.Front) != len(seq.Front) {
				t.Fatalf("front sizes differ: %d != %d", len(par.Front), len(seq.Front))
			}
			for i := range seq.Front {
				g, w := par.Front[i], seq.Front[i]
				if g.Params.Key() != w.Params.Key() {
					t.Errorf("front[%d]: params %s != %s", i, g.Params.Key(), w.Params.Key())
				}
				gm, wm := g.Metrics, w.Metrics
				gm.Runtime, wm.Runtime = 0, 0
				if gm != wm {
					t.Errorf("front[%d] (%s): metrics %+v != %+v", i, g.Params.Key(), gm, wm)
				}
			}
		})
	}
}
