package gdsiiguard

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestFlowParamsToCore(t *testing.T) {
	const k = 10
	cp, err := (*FlowParams)(nil).toCore(k)
	if err != nil {
		t.Fatalf("nil params: %v", err)
	}
	if cp.Op != "CS" || len(cp.ScaleM) != k {
		t.Errorf("nil params gave Op %q, %d scales", cp.Op, len(cp.ScaleM))
	}

	if _, err := (&FlowParams{Op: "GA"}).toCore(k); err == nil ||
		!strings.Contains(err.Error(), "unknown operator") {
		t.Errorf("unknown operator error = %v, want 'unknown operator'", err)
	}

	cp, err = (&FlowParams{Op: LocalDensityAdjust, LDAGridN: 16, LDAIters: 3}).toCore(k)
	if err != nil {
		t.Fatalf("LDA params: %v", err)
	}
	if string(cp.Op) != "LDA" || cp.LDAGridN != 16 || cp.LDAIters != 3 {
		t.Errorf("LDA overrides lost: %+v", cp)
	}

	if _, err := (&FlowParams{Op: LocalDensityAdjust, LDAGridN: 7}).toCore(k); err == nil {
		t.Error("inadmissible LDA grid accepted")
	}
}

// TestFlowParamsValidateMatchesHarden: Validate, which needs no design,
// refuses exactly the parameters a loaded design's Harden refuses, with
// the same error.
func TestFlowParamsValidateMatchesHarden(t *testing.T) {
	d, err := LoadBenchmark("PRESENT")
	if err != nil {
		t.Fatal(err)
	}
	k := d.base.Layout.Lib().NumLayers()
	ones := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = 1
		}
		return s
	}
	for _, p := range []*FlowParams{
		nil,
		{},
		{Op: CellShift, ScaleM: ones(k)},
		{Op: LocalDensityAdjust, LDAGridN: 32, LDAIters: 3},
		{Op: "XX"},
		{ScaleM: ones(k - 1)},
		{ScaleM: ones(k + 1)},
		{ScaleM: []float64{}},
		{ScaleM: append(ones(k-1), 1.3)},
		{Op: LocalDensityAdjust, LDAGridN: 7},
		{Op: LocalDensityAdjust, LDAIters: 4},
	} {
		verr := p.Validate()
		_, cerr := p.toCore(k)
		if (verr == nil) != (cerr == nil) || (verr != nil && verr.Error() != cerr.Error()) {
			t.Errorf("%+v: Validate = %v, design check = %v", p, verr, cerr)
		}
		if cerr == nil {
			continue // valid: Harden would run the whole flow
		}
		if _, herr := d.Harden(p); herr == nil || herr.Error() != cerr.Error() {
			t.Errorf("%+v: Harden = %v, want %v", p, herr, cerr)
		}
	}
}

// hardenedDEF produces a valid hardened DEF through the public API once
// per test run.
func hardenedDEF(t *testing.T) string {
	t.Helper()
	d, err := LoadBenchmark("PRESENT")
	if err != nil {
		t.Fatal(err)
	}
	h, err := d.Harden(nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.WriteDEF(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestLoadDEFErrorPaths(t *testing.T) {
	def := hardenedDEF(t)

	if _, err := LoadDEF(strings.NewReader(def), 0, nil); err == nil ||
		!strings.Contains(err.Error(), "clock period") {
		t.Errorf("zero clock error = %v, want 'clock period'", err)
	}
	if _, err := LoadDEF(strings.NewReader(def), -100, nil); err == nil {
		t.Error("negative clock accepted")
	}
	if _, err := LoadDEF(strings.NewReader(def), 2000, []string{"no_such_instance"}); err == nil ||
		!strings.Contains(err.Error(), "unknown asset") {
		t.Errorf("unknown asset error = %v, want 'unknown asset'", err)
	}
	if _, err := LoadDEF(strings.NewReader("THIS IS NOT A DEF FILE"), 2000, nil); err == nil {
		t.Error("malformed DEF accepted")
	}
	if _, err := LoadDEF(strings.NewReader(""), 2000, nil); err == nil {
		t.Error("empty DEF accepted")
	}
}

// defAssets extracts the key-register asset instance names from a DEF
// COMPONENTS section (criticality is not part of DEF, so a re-import must
// re-declare the assets).
func defAssets(def string) []string {
	var assets []string
	inComponents := false
	for _, line := range strings.Split(def, "\n") {
		fields := strings.Fields(line)
		switch {
		case len(fields) > 0 && fields[0] == "COMPONENTS":
			inComponents = true
		case len(fields) >= 2 && fields[0] == "END" && fields[1] == "COMPONENTS":
			inComponents = false
		case inComponents && len(fields) >= 2 && fields[0] == "-" && strings.HasPrefix(fields[1], "key_reg_"):
			assets = append(assets, fields[1])
		}
	}
	return assets
}

func TestDEFRoundTripMetricsSane(t *testing.T) {
	def := hardenedDEF(t)
	assets := defAssets(def)
	if len(assets) == 0 {
		t.Fatal("no key_reg_ components in exported DEF")
	}
	d, err := LoadDEF(strings.NewReader(def), 2000, assets)
	if err != nil {
		t.Fatalf("LoadDEF: %v", err)
	}
	if d.Name() != "PRESENT" {
		t.Errorf("round-tripped name = %q", d.Name())
	}
	if d.Assets() != len(assets) {
		t.Errorf("assets = %d, want %d", d.Assets(), len(assets))
	}
	m := d.Baseline()
	if m.Security != 1.0 {
		t.Errorf("re-imported baseline security = %g, want 1.0 by definition", m.Security)
	}
	if m.ERSites <= 0 || m.ERTracks <= 0 {
		t.Errorf("implausible exploitable regions: %d sites, %g tracks", m.ERSites, m.ERTracks)
	}
	if m.PowerMW <= 0 {
		t.Errorf("power = %g mW, want > 0", m.PowerMW)
	}
	if math.IsNaN(m.TNS) || math.IsNaN(m.WNS) || m.TNS > 0 {
		t.Errorf("timing insane: TNS %g, WNS %g", m.TNS, m.WNS)
	}
	if m.DRC < 0 {
		t.Errorf("DRC = %d", m.DRC)
	}
	// The re-imported design is itself hardenable.
	h2, err := d.Harden(nil)
	if err != nil {
		t.Fatalf("Harden after round trip: %v", err)
	}
	if h2.Metrics.Security >= 1.0 {
		t.Errorf("round-tripped harden security = %g, want < 1", h2.Metrics.Security)
	}
}
