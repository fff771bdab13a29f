package core

import (
	"testing"

	"gdsiiguard/internal/security"
)

// Regression: FlowConfig.normalized used to replace the whole Security
// struct with the defaults whenever ThreshER was unset, silently discarding
// any other user-configured security/Trojan-model field.
func TestNormalizedPreservesConfiguredSecurityFields(t *testing.T) {
	cfg := FlowConfig{
		Security: security.Params{
			// ThreshER deliberately unset: only it should default.
			TrojanCell:       "NOR2_X1",
			MaxRadiusDBU:     4200,
			TrojanWireFactor: 7,
		},
	}
	n := cfg.normalized()
	def := security.DefaultParams()
	if n.Security.ThreshER != def.ThreshER {
		t.Errorf("ThreshER = %d, want default %d", n.Security.ThreshER, def.ThreshER)
	}
	if n.Security.TrojanCell != "NOR2_X1" {
		t.Errorf("TrojanCell = %q, user value discarded", n.Security.TrojanCell)
	}
	if n.Security.MaxRadiusDBU != 4200 {
		t.Errorf("MaxRadiusDBU = %d, user value discarded", n.Security.MaxRadiusDBU)
	}
	if n.Security.TrojanWireFactor != 7 {
		t.Errorf("TrojanWireFactor = %g, user value discarded", n.Security.TrojanWireFactor)
	}

	// And the converse: a configured ThreshER with the rest unset keeps the
	// threshold and defaults the rest.
	n = FlowConfig{Security: security.Params{ThreshER: 33}}.normalized()
	if n.Security.ThreshER != 33 {
		t.Errorf("ThreshER = %d, want 33", n.Security.ThreshER)
	}
	if n.Security.TrojanCell != def.TrojanCell || n.Security.TrojanWireFactor != def.TrojanWireFactor {
		t.Errorf("unset trojan-model fields not defaulted: %+v", n.Security)
	}
}

// An unset Alpha takes the paper's 0.5; a set one is kept.
func TestNormalizedAlpha(t *testing.T) {
	if n := (FlowConfig{}).normalized(); n.Alpha != 0.5 {
		t.Errorf("unset Alpha = %g, want 0.5", n.Alpha)
	}
	if n := (FlowConfig{Alpha: 0.3}).normalized(); n.Alpha != 0.3 {
		t.Errorf("Alpha 0.3 rewritten to %g", n.Alpha)
	}
}

// Regression: Evaluate left Metrics.Runtime at zero, so baseline-defense
// comparisons (which call Evaluate directly, not Run) reported 0 runtime.
func TestEvaluateSetsRuntime(t *testing.T) {
	l := buildDesign(t, 3, 8, 0.5, 1)
	base, err := EvalBaseline(l, flowConfig(3))
	if err != nil {
		t.Fatalf("EvalBaseline: %v", err)
	}
	res := &Result{}
	if err := Evaluate(base.Layout.Clone(), base, res); err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if res.Metrics.Runtime <= 0 {
		t.Errorf("Evaluate left Metrics.Runtime = %v, want > 0", res.Metrics.Runtime)
	}
	// The full flow still reports the wider flow wall time.
	r, err := Run(base, DefaultParams(l.Lib().NumLayers()))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Metrics.Runtime <= 0 {
		t.Errorf("Run left Metrics.Runtime = %v, want > 0", r.Metrics.Runtime)
	}
}

// The evaluation hot path must record per-stage wall time into the obs
// histograms (the tentpole's flow telemetry).
func TestEvaluationRecordsStageTimings(t *testing.T) {
	l := buildDesign(t, 3, 8, 0.5, 1)
	before := map[Stage]uint64{}
	for _, s := range []Stage{StageRoute, StageTiming, StagePower, StageSecurity, StageDRC} {
		before[s] = stageSeconds.With(string(s)).Count()
	}
	if _, err := EvalBaseline(l, flowConfig(3)); err != nil {
		t.Fatalf("EvalBaseline: %v", err)
	}
	for _, s := range []Stage{StageRoute, StageTiming, StagePower, StageSecurity, StageDRC} {
		if got := stageSeconds.With(string(s)).Count(); got != before[s]+1 {
			t.Errorf("stage %s observations = %d, want %d", s, got, before[s]+1)
		}
	}
}
