package core

import (
	"math/rand"
	"sync"
	"testing"

	"gdsiiguard/internal/sta"
)

// TestConcurrentArenasWithParallelRouteSTA is the race check for the
// intra-evaluation parallel STA layered under the inter-evaluation arena
// concurrency: several arenas evaluate the same chromosome set concurrently,
// each routing and running level-parallel STA. Under -race this catches any
// shared mutable state the router or the STA workers leak across arenas; in
// all modes it asserts the results stay bit-identical to a sequential
// single-arena evaluation.
func TestConcurrentArenasWithParallelRouteSTA(t *testing.T) {
	sta.SetWorkers(4)
	defer sta.SetWorkers(0)

	l := buildDesign(t, 12, 30, 0.5, 3)
	base, err := EvalBaseline(l, flowConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	k := base.Layout.Lib().NumLayers()

	rng := rand.New(rand.NewSource(33))
	var params []Params
	for i := 0; i < 6; i++ {
		params = append(params, RandomParams(k, rng))
	}

	const workers = 3
	results := make([][]Metrics, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewScratch(base)
			for _, p := range params {
				res, err := s.Run(p)
				if err != nil {
					t.Errorf("worker %d (%s): %v", w, p.Key(), err)
					return
				}
				results[w] = append(results[w], res.Metrics)
			}
		}()
	}
	wg.Wait()

	// Sequential reference: Run on fresh clones with parallel STA forced
	// off. Parallel-under-concurrency must reproduce it exactly.
	sta.SetWorkers(1)
	for i, p := range params {
		want, err := Run(base, p)
		if err != nil {
			t.Fatalf("Run (%s): %v", p.Key(), err)
		}
		for w := 0; w < workers; w++ {
			if len(results[w]) <= i {
				continue // that worker already reported a failure
			}
			sameMetrics(t, p.Key(), results[w][i], want.Metrics)
		}
	}
}
