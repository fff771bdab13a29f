package main

import (
	"testing"

	"gdsiiguard/internal/benchdesigns"
)

// TestSoCHardenSmoke drives a scaled-down stamped SoC through the exact
// pipeline the SoC bench measures — streaming export/import, the mass
// scans, and the full harden with its delta ECO evaluation — so CI catches
// a broken stage without paying for the 10^5-cell designs. It deliberately
// runs under -short: this IS the smoke configuration.
func TestSoCHardenSmoke(t *testing.T) {
	spec, err := benchdesigns.SoCSpecOf("SoC_100k")
	if err != nil {
		t.Fatal(err)
	}
	// 2x2 tiles with one macro position keeps every pipeline branch live
	// (stamping, macro blockage, stitching) at a few thousand cells.
	spec.Name = "SoC_smoke"
	spec.TilesX, spec.TilesY = 2, 2
	spec.MacroEvery = 3

	d, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sb := &SoCBench{Design: spec.Name, Stages: map[string]SoCStage{}, Cells: d.Cells}
	if err := benchSoCPipeline(d, sb); err != nil {
		t.Fatal(err)
	}

	for _, stage := range []string{"export", "import", "mass_seq", "mass_band", "harden_baseline", "harden_eco"} {
		if _, ok := sb.Stages[stage]; !ok {
			t.Errorf("stage %q missing from smoke bench", stage)
		}
	}
	if sb.GDSBytes == 0 {
		t.Error("streaming export produced no bytes")
	}
	if sb.HardenDelta == nil {
		t.Fatal("harden delta stats missing")
	}
	// benchSoCPipeline already fails if the ECO pass fell back to a full
	// STA; assert the positive side too — cones were actually propagated.
	if sb.HardenDelta.StaChangedNets == 0 || sb.HardenDelta.StaConeInsts == 0 {
		t.Errorf("delta STA did no cone work: %+v", *sb.HardenDelta)
	}
	if sb.HardenDelta.NetsReplayed == 0 {
		t.Errorf("harden ECO warm route replayed no nets: %+v", *sb.HardenDelta)
	}
	t.Logf("smoke SoC: %d cells, gds %s, delta %+v", sb.Cells, fmtBytes(sb.GDSBytes), *sb.HardenDelta)
}
