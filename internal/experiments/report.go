package experiments

import (
	"fmt"
	"math"
	"strings"

	"gdsiiguard/internal/core"
)

// Fig4Report renders the Fig. 4 comparison: normalized total free sites and
// free tracks per design and defense, plus suite averages.
func (s *Suite) Fig4Report() string {
	var b strings.Builder
	rows := []string{RowICAS, RowBISA, RowBa, RowGuard}
	b.WriteString("Fig. 4 — Normalized free placement sites (free routing tracks) vs. baseline\n\n")
	fmt.Fprintf(&b, "%-14s", "Design")
	for _, r := range rows {
		fmt.Fprintf(&b, " %22s", r)
	}
	b.WriteString("\n")
	for _, d := range s.Results {
		fmt.Fprintf(&b, "%-14s", d.Name)
		for _, r := range rows {
			ns, nt := d.NormSites(r), d.NormTracks(r)
			fmt.Fprintf(&b, "      %6.1f%% (%6.1f%%)", 100*ns, 100*nt)
		}
		b.WriteString("\n")
	}
	avg := s.Averages()
	fmt.Fprintf(&b, "%-14s", "Average")
	for _, r := range rows {
		a := avg[r]
		fmt.Fprintf(&b, "      %6.1f%% (%6.1f%%)", 100*a[0], 100*a[1])
	}
	b.WriteString("\n\n")
	g := avg[RowGuard]
	fmt.Fprintf(&b, "GDSII-Guard average risk reduction: %.1f%% of free sites eliminated "+
		"(paper: 98.8%%; remaining sites 1.3%%, tracks 1.1%%)\n", 100*(1-g[0]))
	return b.String()
}

// guardFallbackNote footnotes a GDSII-Guard entry marked "*": the
// exploration kept no feasible point, so the entry is the identity Cell
// Shift run rather than a selected Pareto solution.
const guardFallbackNote = "* no feasible Pareto point: the GDSII-Guard entry is the identity Cell Shift run\n"

// Table2Report renders Table II: TNS, power and #DRC per design and row.
// A GDSII-Guard entry of a design with no selected solution is marked "*".
func (s *Suite) Table2Report() string {
	var b strings.Builder
	fallback := false
	b.WriteString("Table II — Comparison of timing (TNS), power, and #DRC violations\n")
	sections := []struct {
		title string
		get   func(core.Metrics) string
	}{
		{"TNS (ps)", func(m core.Metrics) string { return fmt.Sprintf("%.1f", m.TNS) }},
		{"Power (mW)", func(m core.Metrics) string { return fmt.Sprintf("%.3f", m.PowerMW) }},
		{"#DRC", func(m core.Metrics) string { return fmt.Sprintf("%d", m.DRC) }},
	}
	for _, sec := range sections {
		fmt.Fprintf(&b, "\n%s\n%-16s", sec.title, "")
		for _, d := range s.Results {
			fmt.Fprintf(&b, " %12s", clip(d.Name, 12))
		}
		b.WriteString("\n")
		for _, row := range RowOrder {
			fmt.Fprintf(&b, "%-16s", row)
			for _, d := range s.Results {
				if m, ok := d.Metrics[row]; ok {
					v := sec.get(m)
					if row == RowGuard && d.Selected == nil {
						v += "*"
						fallback = true
					}
					fmt.Fprintf(&b, " %12s", v)
				} else {
					fmt.Fprintf(&b, " %12s", "-")
				}
			}
			b.WriteString("\n")
		}
	}
	if fallback {
		b.WriteString("\n" + guardFallbackNote)
	}
	return b.String()
}

// Table1Report renders Table I: the flow parameter space.
func Table1Report(k int) string {
	var b strings.Builder
	b.WriteString("Table I — Parameter space of GDSII-Guard operators\n\n")
	fmt.Fprintf(&b, "%-18s %-44s %s\n", "Parameter", "Description", "Candidate Values")
	fmt.Fprintf(&b, "%-18s %-44s %v\n", "op_select", "The selected ECO-place operator", []core.Operator{core.CS, core.LDA})
	fmt.Fprintf(&b, "%-18s %-44s %v\n", "LDA::N", "#Grids in a row/column", core.LDAGridValues)
	fmt.Fprintf(&b, "%-18s %-44s %v\n", "LDA::n_iter", "#Density adjustment iterations", core.LDAIterValues)
	fmt.Fprintf(&b, "%-18s %-44s %v\n", "RWS::scale_M[i]",
		fmt.Sprintf("Routing width scale of metal i (i=1..%d)", k), core.ScaleValues)
	fmt.Fprintf(&b, "\nSearch space size |D| = %d (paper: ≈945k for K = 10)\n", core.SpaceSize(k))
	return b.String()
}

// Fig5Report renders an ASCII scatter of the explored space and the Pareto
// front for one design.
func Fig5Report(pd *ParetoData) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5 — Explored Pareto front: %s (%d evaluations, %d on front)\n",
		pd.Design, len(pd.Points), len(pd.Front))
	if len(pd.Points) == 0 {
		return b.String()
	}
	const W, H = 64, 20
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, p := range pd.Points {
		minX, maxX = math.Min(minX, p[0]), math.Max(maxX, p[0])
		minY, maxY = math.Min(minY, p[1]), math.Max(maxY, p[1])
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, H)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", W))
	}
	plot := func(p [2]float64, ch byte) {
		x := int((p[0] - minX) / (maxX - minX) * float64(W-1))
		y := int((p[1] - minY) / (maxY - minY) * float64(H-1))
		grid[H-1-y][x] = ch
	}
	for _, p := range pd.Points {
		plot(p, '.')
	}
	for _, p := range pd.Front {
		plot(p, '*')
	}
	fmt.Fprintf(&b, "  -TNS (ps)  [%.0f .. %.0f]\n", minY, maxY)
	for _, row := range grid {
		fmt.Fprintf(&b, "  |%s|\n", string(row))
	}
	fmt.Fprintf(&b, "  Security   [%.3f .. %.3f]   (. explored, * Pareto front)\n", minX, maxX)
	// Front listing.
	for _, p := range pd.Front {
		fmt.Fprintf(&b, "    front: security=%.4f  TNS=%.1f ps\n", p[0], -p[1])
	}
	return b.String()
}

// RuntimeReport renders the §IV-D comparison.
func RuntimeReport(rc *RuntimeComparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Runtime comparison on %s (measured in this substrate; paper hours on the authors' testbed)\n\n", rc.Design)
	fmt.Fprintf(&b, "%-14s %14s %12s %18s\n", "Defense", "Measured", "Paper (h)", "Normalized (×Guard)")
	guard := rc.Measured[RowGuard].Seconds()
	rows := []string{RowICAS, RowBISA, RowBa, RowGuard}
	for _, r := range rows {
		norm := math.NaN()
		if guard > 0 {
			norm = rc.Measured[r].Seconds() / guard
		}
		fmt.Fprintf(&b, "%-14s %14s %12.1f %18.2f\n", r, rc.Measured[r].Round(1e7), rc.PaperHours[r], norm)
	}
	paperNorm := []float64{9.4 / 4.8, 6.5 / 4.8, 7.0 / 4.8, 1.0}
	fmt.Fprintf(&b, "\nPaper normalized (×Guard): ICAS %.2f, BISA %.2f, Ba %.2f, Guard 1.00\n",
		paperNorm[0], paperNorm[1], paperNorm[2])
	return b.String()
}

// SummaryReport is a compact one-screen digest of a suite run.
func (s *Suite) SummaryReport() string {
	var b strings.Builder
	b.WriteString("Per-design GDSII-Guard outcome (selected Pareto solution)\n\n")
	fmt.Fprintf(&b, "%-14s %10s %10s %12s %12s %8s %6s\n",
		"Design", "sites%", "tracks%", "TNS base", "TNS guard", "ΔPwr%", "DRC")
	for _, d := range s.Results {
		g := d.Metrics[RowGuard]
		o := d.Metrics[RowOriginal]
		dp := 0.0
		if o.PowerMW > 0 {
			dp = 100 * (g.PowerMW/o.PowerMW - 1)
		}
		fmt.Fprintf(&b, "%-14s %9.1f%% %9.1f%% %12.1f %12.1f %7.1f%% %6d\n",
			d.Name, 100*d.NormSites(RowGuard), 100*d.NormTracks(RowGuard),
			o.TNS, g.TNS, dp, g.DRC)
	}
	return b.String()
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
