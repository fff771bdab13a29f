package main

import (
	"strings"
	"testing"
)

func report(design string, harden float64, stages map[string]StageLatency) *Report {
	return &Report{
		Designs: []DesignBench{{
			Design:          design,
			BaselineSeconds: 1.0,
			HardenSeconds:   harden,
			ExploreSeconds:  10.0,
			TotalSeconds:    11.0 + harden,
			Stages:          stages,
		}},
	}
}

func TestCompareReportsImprovement(t *testing.T) {
	old := report("PRESENT", 2.0, map[string]StageLatency{
		"operator": {Count: 28, TotalSecs: 18.0, MeanSeconds: 0.644},
	})
	cur := report("PRESENT", 0.5, map[string]StageLatency{
		"operator": {Count: 28, TotalSecs: 3.0, MeanSeconds: 0.107},
	})
	diff, regressed := compareReports(old, cur, 0.25)
	if regressed {
		t.Fatalf("improvement flagged as regression:\n%s", diff)
	}
	if !strings.Contains(diff, "stage operator") {
		t.Errorf("diff lacks stage line:\n%s", diff)
	}
	if !strings.Contains(diff, "-83.4%") {
		t.Errorf("diff lacks percentage delta:\n%s", diff)
	}
}

func TestCompareReportsRegression(t *testing.T) {
	old := report("PRESENT", 1.0, map[string]StageLatency{
		"operator": {Count: 28, TotalSecs: 3.0, MeanSeconds: 0.107},
	})
	cur := report("PRESENT", 1.0, map[string]StageLatency{
		"operator": {Count: 28, TotalSecs: 18.0, MeanSeconds: 0.644},
	})
	diff, regressed := compareReports(old, cur, 0.25)
	if !regressed {
		t.Fatalf("6x stage slowdown not flagged:\n%s", diff)
	}
	if !strings.Contains(diff, "REGRESSION") {
		t.Errorf("diff lacks REGRESSION marker:\n%s", diff)
	}
}

func TestCompareReportsWithinTolerance(t *testing.T) {
	old := report("PRESENT", 1.0, nil)
	cur := report("PRESENT", 1.2, nil) // 20% slower, tolerance 25%
	if diff, regressed := compareReports(old, cur, 0.25); regressed {
		t.Fatalf("slowdown within tolerance flagged:\n%s", diff)
	}
	// The same slowdown beyond a tighter tolerance must flag.
	if _, regressed := compareReports(old, cur, 0.1); !regressed {
		t.Fatal("20% slowdown not flagged at 10% tolerance")
	}
}

func socReport(stages map[string]SoCStage) *Report {
	return &Report{SoC: []SoCBench{{Design: "SoC_100k", Cells: 134954, Stages: stages}}}
}

func TestCompareReportsSoCAllocRegression(t *testing.T) {
	old := socReport(map[string]SoCStage{
		"import": {Seconds: 0.1, AllocBytes: 20 << 20},
	})
	// Same wall time, 3x the allocation volume: the memory gate alone
	// must flag it — a streaming path silently buffering the whole
	// library barely moves latency on small inputs.
	cur := socReport(map[string]SoCStage{
		"import": {Seconds: 0.1, AllocBytes: 60 << 20},
	})
	diff, regressed := compareReports(old, cur, 0.25)
	if !regressed {
		t.Fatalf("3x alloc growth not flagged:\n%s", diff)
	}
	if !strings.Contains(diff, "soc import alloc") {
		t.Errorf("diff lacks alloc line:\n%s", diff)
	}
}

func TestCompareReportsSoCAllocWithinFloor(t *testing.T) {
	// +50% relative but only +1MB absolute: below regressionFloorBytes,
	// so small-object churn jitter never fails a run.
	old := socReport(map[string]SoCStage{
		"mass_seq": {Seconds: 0.006, AllocBytes: 2 << 20},
	})
	cur := socReport(map[string]SoCStage{
		"mass_seq": {Seconds: 0.006, AllocBytes: 3 << 20},
	})
	if diff, regressed := compareReports(old, cur, 0.25); regressed {
		t.Fatalf("sub-floor alloc growth flagged:\n%s", diff)
	}
}

func TestCompareReportsSoCMissing(t *testing.T) {
	// A -short run skips SoC entirely; that is a note, not a regression.
	old := socReport(map[string]SoCStage{"import": {Seconds: 0.1, AllocBytes: 20 << 20}})
	diff, regressed := compareReports(old, &Report{}, 0.25)
	if regressed {
		t.Fatalf("missing SoC section treated as regression:\n%s", diff)
	}
	if !strings.Contains(diff, "SoC not in new report") {
		t.Errorf("diff lacks missing-SoC note:\n%s", diff)
	}
}

func TestCompareReportsWorkerMismatch(t *testing.T) {
	old := report("PRESENT", 1.0, map[string]StageLatency{
		"route": {Count: 28, TotalSecs: 3.0, MeanSeconds: 0.107},
	})
	old.Workers = &WorkersReport{NumCPU: 1, STA: 1, Band: 1}
	cur := report("PRESENT", 10.0, map[string]StageLatency{
		"route": {Count: 28, TotalSecs: 18.0, MeanSeconds: 0.644},
	})
	cur.Workers = &WorkersReport{NumCPU: 8, STA: 8, Band: 8}

	// A 6x slowdown would normally flag; under mismatched worker configs
	// the numbers are not comparable, so the diff must warn and refuse.
	diff, regressed := compareReports(old, cur, 0.25)
	if regressed {
		t.Fatalf("regression gated despite worker mismatch:\n%s", diff)
	}
	if !strings.Contains(diff, "worker configuration mismatch") {
		t.Errorf("diff lacks mismatch warning:\n%s", diff)
	}
	if strings.Contains(diff, "REGRESSION") {
		t.Errorf("diff flags REGRESSION despite refusal:\n%s", diff)
	}

	// Matching configs gate as usual.
	cur.Workers = &WorkersReport{NumCPU: 1, STA: 1, Band: 1}
	if _, regressed := compareReports(old, cur, 0.25); !regressed {
		t.Fatal("6x slowdown not flagged with matching worker configs")
	}

	// Old reports without a workers section stay comparable (upgrade path).
	old.Workers = nil
	if _, regressed := compareReports(old, cur, 0.25); !regressed {
		t.Fatal("6x slowdown not flagged when old report predates workers section")
	}
}

func TestCompareReportsShapeMismatch(t *testing.T) {
	old := report("PRESENT", 1.0, map[string]StageLatency{
		"operator": {Count: 28, TotalSecs: 3.0, MeanSeconds: 0.107},
	})
	old.PopSize, old.Generations = 8, 3
	cur := report("PRESENT", 10.0, map[string]StageLatency{
		"operator": {Count: 16, TotalSecs: 10.0, MeanSeconds: 0.644},
	})
	cur.Short, cur.PopSize, cur.Generations = true, 6, 2

	// Per-stage means from different exploration shapes carry different
	// reuse composition; the diff must warn and refuse to gate.
	diff, regressed := compareReports(old, cur, 0.25)
	if regressed {
		t.Fatalf("regression gated despite shape mismatch:\n%s", diff)
	}
	if !strings.Contains(diff, "exploration shape mismatch") {
		t.Errorf("diff lacks shape warning:\n%s", diff)
	}
	if strings.Contains(diff, "REGRESSION") {
		t.Errorf("diff flags REGRESSION despite refusal:\n%s", diff)
	}

	// Matching shapes gate as usual.
	cur.Short, cur.PopSize, cur.Generations = false, 8, 3
	if _, regressed := compareReports(old, cur, 0.25); !regressed {
		t.Fatal("6x slowdown not flagged with matching shapes")
	}
}

func TestCompareReportsMissingData(t *testing.T) {
	old := report("PRESENT", 1.0, map[string]StageLatency{
		"operator": {MeanSeconds: 0.1},
		"route":    {MeanSeconds: 0.2},
	})
	cur := &Report{Designs: []DesignBench{
		{Design: "PRESENT", BaselineSeconds: 1.0, HardenSeconds: 1.0,
			ExploreSeconds: 10.0, TotalSeconds: 12.0,
			Stages: map[string]StageLatency{
				"operator": {MeanSeconds: 0.1},
				"timing":   {MeanSeconds: 0.3}, // new stage: no old data
			}},
		{Design: "AES_1"}, // design with no old data
	}}
	diff, regressed := compareReports(old, cur, 0.25)
	if regressed {
		t.Fatalf("missing data treated as regression:\n%s", diff)
	}
	for _, want := range []string{"no old data", "gone from new report"} {
		if !strings.Contains(diff, want) {
			t.Errorf("diff lacks %q:\n%s", want, diff)
		}
	}
}
