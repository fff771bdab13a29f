package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"gdsiiguard/internal/benchdesigns"
	"gdsiiguard/internal/layout"
)

// ldaGolden pins one LocalDensityAdjust run: an FNV-1a hash of every
// instance's placement in ID order plus the run's telemetry.
type ldaGolden struct {
	hash   uint64
	result LDAResult
}

// ldaGoldens were recorded from the ECO placement whose blockage-cap
// checks scanned every blockage for every probed site. They catch any
// change of LDA placement across rewrites of the ECO search. Keys are
// "design N:iters".
var ldaGoldens = map[string]ldaGolden{
	"PRESENT 2:1":       {hash: 0xb47bc216dd50ce4f, result: LDAResult{Moved: 166, Iterations: 1, Satisfied: false}},
	"PRESENT 2:2":       {hash: 0x2b427a9847704c91, result: LDAResult{Moved: 242, Iterations: 2, Satisfied: false}},
	"PRESENT 2:3":       {hash: 0x19601f4326fe349f, result: LDAResult{Moved: 276, Iterations: 3, Satisfied: false}},
	"PRESENT 4:1":       {hash: 0xb7f97d603e018a9c, result: LDAResult{Moved: 184, Iterations: 1, Satisfied: false}},
	"PRESENT 4:2":       {hash: 0x8c71a311be3be5cb, result: LDAResult{Moved: 292, Iterations: 2, Satisfied: false}},
	"PRESENT 4:3":       {hash: 0x63f2dfef46ce1a65, result: LDAResult{Moved: 371, Iterations: 3, Satisfied: false}},
	"PRESENT 8:1":       {hash: 0xaf57f33cd006873a, result: LDAResult{Moved: 161, Iterations: 1, Satisfied: false}},
	"PRESENT 8:2":       {hash: 0x362124de04b3abc6, result: LDAResult{Moved: 211, Iterations: 2, Satisfied: false}},
	"PRESENT 8:3":       {hash: 0xa1c8b65fbf3acdff, result: LDAResult{Moved: 250, Iterations: 3, Satisfied: false}},
	"PRESENT 16:1":      {hash: 0x7c9c6b65cad1dc73, result: LDAResult{Moved: 189, Iterations: 1, Satisfied: false}},
	"PRESENT 16:2":      {hash: 0x59b2e81a25d5f303, result: LDAResult{Moved: 221, Iterations: 2, Satisfied: false}},
	"PRESENT 16:3":      {hash: 0xbde05c0430663a2c, result: LDAResult{Moved: 248, Iterations: 3, Satisfied: false}},
	"PRESENT 32:1":      {hash: 0x8e3a436fd9684580, result: LDAResult{Moved: 89, Iterations: 1, Satisfied: false}},
	"PRESENT 32:2":      {hash: 0x13c8b2737ad9b8dc, result: LDAResult{Moved: 98, Iterations: 2, Satisfied: false}},
	"PRESENT 32:3":      {hash: 0xb7a742263de536b2, result: LDAResult{Moved: 105, Iterations: 3, Satisfied: false}},
	"openMSP430_2 2:1":  {hash: 0xce8ae37ae7e485f3, result: LDAResult{Moved: 165, Iterations: 1, Satisfied: false}},
	"openMSP430_2 2:2":  {hash: 0xf239fec4ff88ccd3, result: LDAResult{Moved: 166, Iterations: 2, Satisfied: false}},
	"openMSP430_2 2:3":  {hash: 0xb53c478b5a61a2c4, result: LDAResult{Moved: 172, Iterations: 3, Satisfied: false}},
	"openMSP430_2 4:1":  {hash: 0x226bdeb568a238b6, result: LDAResult{Moved: 93, Iterations: 1, Satisfied: false}},
	"openMSP430_2 4:2":  {hash: 0x226bdeb568a238b6, result: LDAResult{Moved: 93, Iterations: 2, Satisfied: false}},
	"openMSP430_2 4:3":  {hash: 0x343bc514fc93e3cc, result: LDAResult{Moved: 95, Iterations: 3, Satisfied: false}},
	"openMSP430_2 8:1":  {hash: 0x8812b744fe17dd10, result: LDAResult{Moved: 109, Iterations: 1, Satisfied: false}},
	"openMSP430_2 8:2":  {hash: 0x8812b744fe17dd10, result: LDAResult{Moved: 109, Iterations: 2, Satisfied: false}},
	"openMSP430_2 8:3":  {hash: 0x8812b744fe17dd10, result: LDAResult{Moved: 109, Iterations: 3, Satisfied: false}},
	"openMSP430_2 16:1": {hash: 0x44ce652f102eda3a, result: LDAResult{Moved: 187, Iterations: 1, Satisfied: false}},
	"openMSP430_2 16:2": {hash: 0x44ce652f102eda3a, result: LDAResult{Moved: 187, Iterations: 2, Satisfied: false}},
	"openMSP430_2 16:3": {hash: 0x44ce652f102eda3a, result: LDAResult{Moved: 187, Iterations: 3, Satisfied: false}},
	"openMSP430_2 32:1": {hash: 0x8307d2e44444dd1c, result: LDAResult{Moved: 256, Iterations: 1, Satisfied: false}},
	"openMSP430_2 32:2": {hash: 0x3b07303a29896f20, result: LDAResult{Moved: 259, Iterations: 2, Satisfied: false}},
	"openMSP430_2 32:3": {hash: 0x3b07303a29896f20, result: LDAResult{Moved: 259, Iterations: 3, Satisfied: false}},
}

// placementHash hashes every instance's (placed, row, site) in ID order.
func placementHash(l *layout.Layout) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	for _, in := range l.Netlist.Insts {
		p := l.PlacementOf(in)
		placed := 0
		if p.Placed {
			placed = 1
		}
		put(placed)
		put(p.Row)
		put(p.Site)
	}
	return h.Sum64()
}

// TestLDAPlacementGolden runs LocalDensityAdjust from the evaluated
// baseline, under baseline timing, at every admissible LDA::N and
// LDA::n_iter, and requires the recorded placements and telemetry.
func TestLDAPlacementGolden(t *testing.T) {
	designs := []string{"PRESENT"}
	if !testing.Short() {
		designs = append(designs, "openMSP430_2")
	}
	for _, name := range designs {
		d, err := benchdesigns.Build(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		base, err := EvalBaseline(d.Layout, FlowConfig{Constraints: d.Cons, Activity: d.Spec.Activity, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, gridN := range LDAGridValues {
			for _, iters := range LDAIterValues {
				key := fmt.Sprintf("%s %d:%d", name, gridN, iters)
				l := base.Layout.Clone()
				Preprocess(l)
				res := LocalDensityAdjust(l, gridN, iters, base.Config.Seed, base.Timing)
				if err := l.Validate(); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got := ldaGolden{hash: placementHash(l), result: res}
				want, ok := ldaGoldens[key]
				if !ok {
					t.Errorf("%q: {hash: %#x, result: LDAResult{Moved: %d, Iterations: %d, Satisfied: %v}},",
						key, got.hash, res.Moved, res.Iterations, res.Satisfied)
					continue
				}
				if got != want {
					t.Errorf("%s: got %#x %+v, want %#x %+v", key, got.hash, got.result, want.hash, want.result)
				}
			}
		}
	}
}
