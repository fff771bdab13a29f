package experiments

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"gdsiiguard/internal/core"
	"gdsiiguard/internal/nsga2"
	"gdsiiguard/internal/opencell45"
)

func smallOptions(designs ...string) Options {
	return Options{Designs: designs, GAPop: 6, GAGens: 2, Seed: 1}
}

func TestSuiteOnSmallSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run is slow")
	}
	suite, err := Run(smallOptions("PRESENT"))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(suite.Results) != 1 {
		t.Fatalf("results = %d", len(suite.Results))
	}
	d := suite.Results[0]
	for _, row := range RowOrder {
		if _, ok := d.Metrics[row]; !ok {
			t.Errorf("row %q missing", row)
		}
	}
	// Normalizations: original is exactly 1.0; defenses ≤ 1 + slack.
	if ns := d.NormSites(RowOriginal); math.Abs(ns-1) > 1e-9 {
		t.Errorf("original normalized sites = %g", ns)
	}
	if g := d.NormSites(RowGuard); g >= 1.0 {
		t.Errorf("GDSII-Guard normalized sites = %g, want < 1", g)
	}
	// Reports render.
	for _, rep := range []string{suite.Fig4Report(), suite.Table2Report(), suite.SummaryReport()} {
		if len(rep) < 50 {
			t.Error("report suspiciously short")
		}
	}
	if !strings.Contains(suite.Fig4Report(), "PRESENT") {
		t.Error("Fig4 report lacks design name")
	}
	avg := suite.Averages()
	if _, ok := avg[RowGuard]; !ok {
		t.Error("averages lack GDSII-Guard")
	}
}

func TestSelectKnee(t *testing.T) {
	if SelectKnee(nil) != nil {
		t.Error("empty front should yield nil")
	}
	mk := func(sec, tns float64) nsga2.Individual {
		return nsga2.Individual{Feasible: true, Metrics: core.Metrics{Security: sec, TNS: tns}}
	}
	single := []nsga2.Individual{mk(0.5, -10)}
	if SelectKnee(single) == nil {
		t.Error("singleton front should yield the point")
	}
	front := []nsga2.Individual{
		mk(0.02, -500), // extreme security, bad timing
		mk(0.10, -50),  // knee-ish
		mk(0.90, -1),   // extreme timing, bad security
	}
	sel := SelectKnee(front)
	if sel == nil {
		t.Fatal("no knee")
	}
	if sel.Metrics.Security == 0.90 {
		t.Errorf("knee picked the security-worst extreme: %+v", sel.Metrics)
	}
}

func TestTable1Report(t *testing.T) {
	rep := Table1Report(opencell45.NumLayers)
	for _, want := range []string{"op_select", "LDA::N", "RWS::scale_M[i]", "944784"} {
		if !strings.Contains(rep, want) {
			t.Errorf("Table I report missing %q", want)
		}
	}
}

func TestFig5ReportRendering(t *testing.T) {
	pd := &ParetoData{
		Design: "X",
		Points: [][2]float64{{0.1, 10}, {0.5, 5}, {0.9, 1}},
		Front:  [][2]float64{{0.1, 10}, {0.9, 1}},
	}
	rep := Fig5Report(pd)
	if !strings.Contains(rep, "*") || !strings.Contains(rep, ".") {
		t.Error("scatter lacks plotted points")
	}
	if !strings.Contains(rep, "front: security=0.1000") {
		t.Errorf("front listing missing:\n%s", rep)
	}
	// Degenerate: no points.
	if rep := Fig5Report(&ParetoData{Design: "Y"}); !strings.Contains(rep, "Y") {
		t.Error("empty report lacks design name")
	}
}

func TestOperatorAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r, err := RunOperatorAblation("PRESENT", 1)
	if err != nil {
		t.Fatalf("ablation: %v", err)
	}
	if r.Tight {
		t.Error("PRESENT should be loose")
	}
	rep := OperatorAblationReport([]*OperatorAblation{r})
	if !strings.Contains(rep, "PRESENT") {
		t.Error("report lacks design")
	}
}

func TestRWSAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r, err := RunRWSAblation("PRESENT", 1)
	if err != nil {
		t.Fatal(err)
	}
	rep := RWSAblationReport([]*RWSAblation{r})
	if !strings.Contains(rep, "PRESENT") {
		t.Error("report lacks design")
	}
}

func TestExportJSONAndCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run is slow")
	}
	suite, err := Run(smallOptions("PRESENT"))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := suite.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	for _, want := range []string{`"PRESENT"`, `"norm_sites"`, `"GDSII-Guard"`, `"average_norm_sites_tracks"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("JSON missing %s", want)
		}
	}
	pd := &ParetoData{
		Design: "X",
		Points: [][2]float64{{0.1, 10}, {0.5, 5}},
		Front:  [][2]float64{{0.1, 10}},
	}
	var csv strings.Builder
	if err := pd.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "0.100000,10.000,true") ||
		!strings.Contains(csv.String(), "0.500000,5.000,false") {
		t.Errorf("CSV content wrong:\n%s", csv.String())
	}
}

// TestGuardFallbackIsLabelled: a design whose exploration kept no feasible
// point reports the identity Cell Shift run as its GDSII-Guard row; Table II
// marks that entry and the JSON export flags it, while a design with a
// selected solution carries neither mark.
func TestGuardFallbackIsLabelled(t *testing.T) {
	base := &core.Baseline{Metrics: core.Metrics{ERSites: 100, ERTracks: 10}}
	rows := func(guardTNS float64) map[string]core.Metrics {
		out := map[string]core.Metrics{}
		for _, row := range RowOrder {
			out[row] = core.Metrics{ERSites: 50, ERTracks: 5, TNS: -1}
		}
		out[RowGuard] = core.Metrics{ERSites: 20, ERTracks: 2, TNS: guardTNS}
		return out
	}
	sel := nsga2.Individual{Params: core.DefaultParams(10)}
	suite := &Suite{Results: []*DesignResult{
		{Name: "PICKED", Baseline: base, Metrics: rows(-7), Selected: &sel},
		{Name: "FALLBACK", Baseline: base, Metrics: rows(-9)},
	}}

	rep := suite.Table2Report()
	if !strings.Contains(rep, "-9.0*") || strings.Contains(rep, "-7.0*") {
		t.Errorf("Table II marks the wrong GDSII-Guard entry:\n%s", rep)
	}
	if !strings.Contains(rep, guardFallbackNote) {
		t.Errorf("Table II lacks the fallback footnote:\n%s", rep)
	}
	if rep := (&Suite{Results: suite.Results[:1]}).Table2Report(); strings.Contains(rep, "*") {
		t.Errorf("Table II without a fallback carries a mark:\n%s", rep)
	}

	var buf strings.Builder
	if err := suite.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Designs []struct {
			Name          string `json:"name"`
			GuardFallback bool   `json:"guard_fallback"`
		} `json:"designs"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &out); err != nil {
		t.Fatal(err)
	}
	for _, d := range out.Designs {
		if want := d.Name == "FALLBACK"; d.GuardFallback != want {
			t.Errorf("%s: guard_fallback = %v, want %v", d.Name, d.GuardFallback, want)
		}
	}
}

func TestRuntimeReportRendering(t *testing.T) {
	rc := &RuntimeComparison{
		Design: "AES_2",
		Measured: map[string]time.Duration{
			RowICAS: 4 * time.Second, RowBISA: 3 * time.Second,
			RowBa: 2 * time.Second, RowGuard: time.Second,
		},
		PaperHours: map[string]float64{RowICAS: 9.4, RowBISA: 6.5, RowBa: 7.0, RowGuard: 4.8},
	}
	rep := RuntimeReport(rc)
	for _, want := range []string{"AES_2", "ICAS", "GDSII-Guard", "9.4", "4.00"} {
		if !strings.Contains(rep, want) {
			t.Errorf("runtime report missing %q:\n%s", want, rep)
		}
	}
}

func TestDiceAblationReportRendering(t *testing.T) {
	rep := DiceAblationReport([]*DiceAblation{{Design: "X", BaselineER: 100, WithoutDice: 60, WithDice: 5}})
	for _, want := range []string{"X", "100", "60", "5"} {
		if !strings.Contains(rep, want) {
			t.Errorf("dice report missing %q", want)
		}
	}
}
