package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// loadReport reads a previously written benchmark report.
func loadReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// regressionFloorSecs is the absolute slowdown below which a relative
// regression is never flagged: sub-millisecond stage means (power, drc)
// jitter by tens of percent run to run on a loaded machine, and a purely
// relative tolerance would turn that noise into CI failures.
const regressionFloorSecs = 0.005

// regressionFloorBytes is the analogous absolute floor for allocation
// volume in the SoC streaming stages: small-object churn varies a little
// with scheduling, but a streaming path that regresses to whole-library
// buffering allocates tens of megabytes more, far above this floor.
const regressionFloorBytes = 4 << 20

// workersMismatch reports how the two reports' worker configurations
// differ, or "" when they are comparable. Reports written before the
// workers section existed carry no configuration and compare as before
// (there is nothing to refuse on).
func workersMismatch(old, cur *Report) string {
	if old.Workers == nil || cur.Workers == nil {
		return ""
	}
	if *old.Workers == *cur.Workers {
		return ""
	}
	return fmt.Sprintf(
		"worker configuration mismatch: old cpu=%d sta=%d band=%d, new cpu=%d sta=%d band=%d",
		old.Workers.NumCPU, old.Workers.STA, old.Workers.Band,
		cur.Workers.NumCPU, cur.Workers.STA, cur.Workers.Band)
}

// shapeMismatch reports why the two runs' latencies are not comparable when
// their exploration shapes differ ("" when they match). Per-stage means are
// composition-sensitive under delta evaluation — a smaller exploration
// amortizes reuse over fewer evaluations, so its per-call operator mean is
// legitimately higher — which makes a short-vs-full comparison a phantom
// regression generator, not a gate.
func shapeMismatch(old, cur *Report) string {
	if old.Short == cur.Short && old.PopSize == cur.PopSize && old.Generations == cur.Generations {
		return ""
	}
	return fmt.Sprintf(
		"exploration shape mismatch: old short=%t pop=%d gens=%d, new short=%t pop=%d gens=%d",
		old.Short, old.PopSize, old.Generations, cur.Short, cur.PopSize, cur.Generations)
}

// compareReports diffs two benchmark reports design by design: per-stage
// mean latencies and the per-phase end-to-end wall times, each with a
// percentage delta against the old report. It returns the rendered diff
// and whether any comparable number regressed beyond the tolerance
// (tolerance 0.25 = new may be up to 25% slower before it counts, and the
// absolute slowdown must also exceed regressionFloorSecs).
// Designs or stages present in only one report are noted but never count
// as regressions. Neither do any latency deltas when the two reports were
// measured under different worker configurations or exploration shapes:
// wall times from different parallelism (or per-call means from different
// reuse composition) are not comparable, so the diff leads with a warning
// and regression gating is refused for the whole comparison.
func compareReports(old, cur *Report, tolerance float64) (string, bool) {
	var b strings.Builder
	regressed := false
	gate := true
	for _, msg := range []string{workersMismatch(old, cur), shapeMismatch(old, cur)} {
		if msg == "" {
			continue
		}
		gate = false
		fmt.Fprintf(&b, "WARNING: %s\n", msg)
		fmt.Fprintf(&b, "WARNING: latency deltas below are informational; regression gating refused\n")
	}

	oldByName := map[string]DesignBench{}
	for _, d := range old.Designs {
		oldByName[d.Design] = d
	}

	line := func(design, metric string, was, now float64) {
		pct := 0.0
		if was > 0 {
			pct = (now - was) / was * 100
		}
		flag := ""
		if gate && was > 0 && now > was*(1+tolerance) && now-was > regressionFloorSecs {
			flag = "  REGRESSION"
			regressed = true
		}
		fmt.Fprintf(&b, "%-16s %-18s %8.3fs -> %8.3fs  (%+7.1f%%)%s\n",
			design, metric, was, now, pct, flag)
	}

	for _, d := range cur.Designs {
		prev, ok := oldByName[d.Design]
		if !ok {
			fmt.Fprintf(&b, "%-16s (no old data: skipped)\n", d.Design)
			continue
		}
		line(d.Design, "baseline", prev.BaselineSeconds, d.BaselineSeconds)
		line(d.Design, "harden", prev.HardenSeconds, d.HardenSeconds)
		line(d.Design, "explore", prev.ExploreSeconds, d.ExploreSeconds)
		line(d.Design, "total", prev.TotalSeconds, d.TotalSeconds)

		var stages []string
		for s := range d.Stages {
			stages = append(stages, s)
		}
		sort.Strings(stages)
		for _, s := range stages {
			ps, ok := prev.Stages[s]
			if !ok {
				fmt.Fprintf(&b, "%-16s stage %-12s (no old data: skipped)\n", d.Design, s)
				continue
			}
			line(d.Design, "stage "+s, ps.MeanSeconds, d.Stages[s].MeanSeconds)
		}
		for s := range prev.Stages {
			if _, ok := d.Stages[s]; !ok {
				fmt.Fprintf(&b, "%-16s stage %-12s (gone from new report)\n", d.Design, s)
			}
		}
	}
	for _, d := range old.Designs {
		found := false
		for _, c := range cur.Designs {
			if c.Design == d.Design {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(&b, "%-16s (not in new report)\n", d.Design)
		}
	}

	// SoC streaming stages: gate both wall time and allocation volume.
	// Missing entries (e.g. a -short run that skipped SoC) are noted, never
	// regressions — mirroring how missing designs are handled above.
	byteLine := func(design, metric string, was, now uint64) {
		pct := 0.0
		if was > 0 {
			pct = (float64(now) - float64(was)) / float64(was) * 100
		}
		flag := ""
		if gate && was > 0 && float64(now) > float64(was)*(1+tolerance) && now-was > regressionFloorBytes {
			flag = "  REGRESSION"
			regressed = true
		}
		fmt.Fprintf(&b, "%-16s %-18s %7.1fMB -> %7.1fMB  (%+7.1f%%)%s\n",
			design, metric, float64(was)/(1<<20), float64(now)/(1<<20), pct, flag)
	}
	oldSoC := map[string]SoCBench{}
	for _, s := range old.SoC {
		oldSoC[s.Design] = s
	}
	for _, s := range cur.SoC {
		prev, ok := oldSoC[s.Design]
		if !ok {
			fmt.Fprintf(&b, "%-16s (no old SoC data: skipped)\n", s.Design)
			continue
		}
		var stages []string
		for st := range s.Stages {
			stages = append(stages, st)
		}
		sort.Strings(stages)
		for _, st := range stages {
			ps, ok := prev.Stages[st]
			if !ok {
				fmt.Fprintf(&b, "%-16s soc %-14s (no old data: skipped)\n", s.Design, st)
				continue
			}
			line(s.Design, "soc "+st, ps.Seconds, s.Stages[st].Seconds)
			byteLine(s.Design, "soc "+st+" alloc", ps.AllocBytes, s.Stages[st].AllocBytes)
		}
	}
	for _, s := range old.SoC {
		found := false
		for _, c := range cur.SoC {
			if c.Design == s.Design {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(&b, "%-16s (SoC not in new report)\n", s.Design)
		}
	}
	return b.String(), regressed
}
