package security_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"gdsiiguard/internal/benchdesigns"
	"gdsiiguard/internal/core"
	"gdsiiguard/internal/geom"
	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/route"
	"gdsiiguard/internal/sdc"
	"gdsiiguard/internal/security"
	"gdsiiguard/internal/sta"
	"gdsiiguard/internal/tech"
)

// The reference below is the assessment as it was before the kernel moved
// to flat, recycled buffers: a per-site dangling check, a [][]int64
// chamfer, and a run union-find that tests every pair of runs in adjacent
// rows and groups its components through two maps. It is kept verbatim
// (bar the package qualifiers) so the kernel can be checked against it.

func refAssess(l *layout.Layout, routes *route.Result, timing *sta.Result, p security.Params) (*security.Assessment, error) {
	if p.ThreshER <= 0 {
		return nil, fmt.Errorf("security: ThreshER must be positive")
	}
	if p.TrojanCell == "" {
		p.TrojanCell = "NAND2_X1"
	}
	a := &security.Assessment{}

	exploitable := exploitableMask(l)
	for _, row := range exploitable {
		for _, e := range row {
			if e {
				a.FreeSites++
			}
		}
	}

	radius, nAssets, err := assetRadii(l, timing, p)
	if err != nil {
		return nil, err
	}
	a.Assets = nAssets
	reach := reachMask(l, radius)

	// Exploitable sites: free AND within reach.
	for r := 0; r < l.NumRows; r++ {
		for s := 0; s < l.SitesPerRow; s++ {
			exploitable[r][s] = exploitable[r][s] && reach[r][s] >= 0
			if exploitable[r][s] {
				a.ExploitableSites++
			}
		}
	}

	a.Regions = components(l, exploitable, p.ThreshER)
	for _, reg := range a.Regions {
		a.ERSites += reg.Sites
		if routes != nil {
			for _, run := range reg.Runs {
				lo := l.SiteDBU(run.Row, run.Start)
				hi := l.SiteDBU(run.Row, run.Start+run.Len)
				hi.Y += l.Lib().Site.Height
				a.ERTracks += routes.FreeTracksInRect(geom.R(lo.X, lo.Y, hi.X, hi.Y))
			}
		}
	}
	return a, nil
}

func exploitableMask(l *layout.Layout) [][]bool {
	mask := make([][]bool, l.NumRows)
	for r := 0; r < l.NumRows; r++ {
		mask[r] = make([]bool, l.SitesPerRow)
		for s := 0; s < l.SitesPerRow; s++ {
			in := l.At(r, s)
			mask[r][s] = in == nil || !in.Master.IsFunctional() || isDangling(in)
		}
	}
	return mask
}

func isDangling(in *netlist.Instance) bool {
	hasOutput, observed := false, false
	for _, p := range in.Master.Pins {
		if p.Dir != tech.Output {
			continue
		}
		hasOutput = true
		if n := in.NetConn(p.Name); n != nil && len(n.Sinks) > 0 {
			observed = true
		}
	}
	return hasOutput && !observed
}

func assetRadii(l *layout.Layout, timing *sta.Result, p security.Params) (map[*netlist.Instance]int64, int, error) {
	lib := l.Lib()
	trojan := lib.Cell(p.TrojanCell)
	if trojan == nil {
		return nil, 0, fmt.Errorf("security: trojan cell %q not in library", p.TrojanCell)
	}
	maxRadius := p.MaxRadiusDBU
	if maxRadius <= 0 {
		core := l.CoreRect()
		maxRadius = core.W() + core.H()
	}
	var nandIntrinsic, nandRes, nandInCap float64
	if out := trojan.OutputPin(); out != nil && len(trojan.Arcs) > 0 {
		nandIntrinsic = trojan.Arcs[0].Intrinsic
		nandRes = trojan.Arcs[0].DriveRes
	}
	if ins := trojan.InputPins(); len(ins) > 0 {
		nandInCap = ins[0].Cap
	}
	layer := lib.Layer(3)
	if layer == nil {
		layer = lib.Layer(lib.NumLayers() / 2)
	}
	factor := p.TrojanWireFactor
	if factor <= 0 {
		factor = 3
	}
	rPerUM, cPerUM := layer.RPerUM, layer.CPerUM*factor

	var slacks []float64
	n := 0
	for _, in := range l.Netlist.CriticalInsts() {
		n++
		if timing == nil {
			continue
		}
		s := timing.InstSlack(in)
		if math.IsInf(s, 1) || s <= 0 {
			continue
		}
		slacks = append(slacks, s)
	}
	slack := math.Inf(1)
	if timing != nil {
		if len(slacks) == 0 {
			slack = 0
		} else {
			sort.Float64s(slacks)
			slack = slacks[len(slacks)/4]
		}
	}
	radius := maxRadius
	if !math.IsInf(slack, 1) {
		budget := slack - nandIntrinsic - nandRes*nandInCap
		if budget <= 0 {
			radius = 0
		} else {
			a := 0.5 * rPerUM * cPerUM
			b := nandRes * cPerUM
			var lUM float64
			switch {
			case a > 0:
				lUM = (-b + math.Sqrt(b*b+4*a*budget)) / (2 * a)
			case b > 0:
				lUM = budget / b
			default:
				lUM = math.Inf(1)
			}
			radius = int64(lUM * float64(lib.DBUPerMicron))
			if radius > maxRadius || math.IsInf(lUM, 1) {
				radius = maxRadius
			}
		}
	}
	radii := make(map[*netlist.Instance]int64)
	for _, in := range l.Netlist.CriticalInsts() {
		radii[in] = radius
	}
	return radii, n, nil
}

func reachMask(l *layout.Layout, radius map[*netlist.Instance]int64) [][]int64 {
	const negInf = int64(math.MinInt64 / 4)
	w, h := l.SitesPerRow, l.NumRows
	siteW, siteH := l.Lib().Site.Width, l.Lib().Site.Height
	phi := make([][]int64, h)
	for r := range phi {
		phi[r] = make([]int64, w)
		for s := range phi[r] {
			phi[r][s] = negInf
		}
	}
	for in, rad := range radius {
		p := l.PlacementOf(in)
		if !p.Placed {
			continue
		}
		for s := p.Site; s < p.Site+in.Master.WidthSites && s < w; s++ {
			if rad > phi[p.Row][s] {
				phi[p.Row][s] = rad
			}
		}
	}
	// Forward sweep.
	for r := 0; r < h; r++ {
		for s := 0; s < w; s++ {
			if s > 0 && phi[r][s-1]-siteW > phi[r][s] {
				phi[r][s] = phi[r][s-1] - siteW
			}
			if r > 0 && phi[r-1][s]-siteH > phi[r][s] {
				phi[r][s] = phi[r-1][s] - siteH
			}
		}
	}
	// Backward sweep.
	for r := h - 1; r >= 0; r-- {
		for s := w - 1; s >= 0; s-- {
			if s < w-1 && phi[r][s+1]-siteW > phi[r][s] {
				phi[r][s] = phi[r][s+1] - siteW
			}
			if r < h-1 && phi[r+1][s]-siteH > phi[r][s] {
				phi[r][s] = phi[r+1][s] - siteH
			}
		}
	}
	return phi
}

func components(l *layout.Layout, mask [][]bool, thresh int) []security.Region {
	type run struct {
		row, start, length int
	}
	var runs []run
	rowRuns := make([][]int, l.NumRows) // indices into runs, per row
	for r := 0; r < l.NumRows; r++ {
		start := -1
		for s := 0; s <= l.SitesPerRow; s++ {
			marked := s < l.SitesPerRow && mask[r][s]
			if marked && start < 0 {
				start = s
			}
			if !marked && start >= 0 {
				rowRuns[r] = append(rowRuns[r], len(runs))
				runs = append(runs, run{r, start, s - start})
				start = -1
			}
		}
	}
	parent := make([]int, len(runs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	// Connect vertically overlapping runs in adjacent rows.
	for r := 1; r < l.NumRows; r++ {
		for _, i := range rowRuns[r] {
			for _, j := range rowRuns[r-1] {
				a, b := runs[i], runs[j]
				if a.start < b.start+b.length && b.start < a.start+a.length {
					union(i, j)
				}
			}
		}
	}
	groups := make(map[int][]int)
	for i := range runs {
		root := find(i)
		groups[root] = append(groups[root], i)
	}
	var out []security.Region
	// Deterministic order: iterate runs, emit a region when visiting its
	// root's first member.
	emitted := make(map[int]bool)
	for i := range runs {
		root := find(i)
		if emitted[root] {
			continue
		}
		emitted[root] = true
		var reg security.Region
		for _, j := range groups[root] {
			reg.Sites += runs[j].length
			reg.Runs = append(reg.Runs, layout.SiteRun{
				Row: runs[j].row, Start: runs[j].start, Len: runs[j].length,
			})
		}
		if reg.Sites >= thresh {
			out = append(out, reg)
		}
	}
	return out
}

// sameAssessment requires got to equal want field for field, ERTracks bit
// for bit, and every region's weight and runs in the same order.
func sameAssessment(t *testing.T, name string, got, want *security.Assessment) {
	t.Helper()
	if got.ERSites != want.ERSites || math.Float64bits(got.ERTracks) != math.Float64bits(want.ERTracks) ||
		got.ExploitableSites != want.ExploitableSites || got.FreeSites != want.FreeSites || got.Assets != want.Assets {
		t.Fatalf("%s: ERSites/ERTracks/exploitable/free/assets %d/%v/%d/%d/%d, want %d/%v/%d/%d/%d", name,
			got.ERSites, got.ERTracks, got.ExploitableSites, got.FreeSites, got.Assets,
			want.ERSites, want.ERTracks, want.ExploitableSites, want.FreeSites, want.Assets)
	}
	if len(got.Regions) != len(want.Regions) {
		t.Fatalf("%s: %d regions, want %d", name, len(got.Regions), len(want.Regions))
	}
	for i, w := range want.Regions {
		g := got.Regions[i]
		if g.Sites != w.Sites || len(g.Runs) != len(w.Runs) {
			t.Fatalf("%s: region %d has %d sites in %d runs, want %d in %d", name, i, g.Sites, len(g.Runs), w.Sites, len(w.Runs))
		}
		for k := range w.Runs {
			if g.Runs[k] != w.Runs[k] {
				t.Fatalf("%s: region %d run %d is %+v, want %+v", name, i, k, g.Runs[k], w.Runs[k])
			}
		}
	}
}

// assessCase is one layout state with the routes and timing to assess it
// under.
type assessCase struct {
	name   string
	l      *layout.Layout
	routes *route.Result
	timing *sta.Result
	p      security.Params
}

// routedCase routes and times l and returns it under both thresholds of
// paramSweep, with and without its routes and timing.
func routedCases(t *testing.T, name string, l *layout.Layout, cons *sdc.Constraints) []assessCase {
	t.Helper()
	routes, err := route.Route(l, route.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	timing, err := sta.Analyze(l, sta.Options{Constraints: cons, Routes: routes})
	if err != nil {
		t.Fatal(err)
	}
	var out []assessCase
	for _, p := range paramSweep() {
		tag := fmt.Sprintf("%s/thresh%d", name, p.ThreshER)
		out = append(out,
			assessCase{tag + "/bare", l, nil, nil, p},
			assessCase{tag + "/routed", l, routes, timing, p})
	}
	return out
}

// paramSweep is the paper's configuration and a threshold of one, under
// which every exploitable site lies in some region, so the regions pin the
// exploitable mask site by site.
func paramSweep() []security.Params {
	one := security.DefaultParams()
	one.ThreshER = 1
	return []security.Params{security.DefaultParams(), one}
}

// impossibleClock is a clock no design meets: every asset path has
// negative slack, so the exploitable distance is zero.
func impossibleClock(t *testing.T) *sdc.Constraints {
	t.Helper()
	c, err := sdc.ParseString("create_clock -name clk -period 0.001 [get_ports clk]\n")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// referenceCases builds the layouts the kernel is checked on: every
// benchmark design as placed, bare and routed; Cell Shift and LDA
// placements of PRESENT and openMSP430_2; a zero exploitable distance, a
// small capped one and the uncapped maximum; and a layout with no assets.
func referenceCases(t *testing.T) []assessCase {
	t.Helper()
	var cases []assessCase
	for _, name := range benchdesigns.Names() {
		d, err := benchdesigns.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, routedCases(t, name, d.Layout, d.Cons)...)
	}
	for _, name := range []string{"PRESENT", "openMSP430_2"} {
		d, err := benchdesigns.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		timing, err := sta.Analyze(d.Layout, sta.Options{Constraints: d.Cons})
		if err != nil {
			t.Fatal(err)
		}
		cs := d.Layout.Clone()
		core.CellShift(cs, security.DefaultParams().ThreshER)
		cases = append(cases, routedCases(t, name+"/CS", cs, d.Cons)...)
		lda := d.Layout.Clone()
		core.LocalDensityAdjust(lda, 8, 2, 1, timing)
		cases = append(cases, routedCases(t, name+"/LDA", lda, d.Cons)...)

		zero, err := sta.Analyze(d.Layout, sta.Options{Constraints: impossibleClock(t)})
		if err != nil {
			t.Fatal(err)
		}
		capped := security.DefaultParams()
		capped.MaxRadiusDBU = 5 * d.Layout.Lib().Site.Height
		cases = append(cases,
			assessCase{name + "/radius0", d.Layout, nil, zero, security.DefaultParams()},
			assessCase{name + "/capped", d.Layout, nil, nil, capped},
			assessCase{name + "/capped-timed", d.Layout, nil, timing, capped})

		none := d.Layout.Clone()
		for _, in := range none.Netlist.Insts {
			in.SecurityCritical = false
		}
		cases = append(cases, assessCase{name + "/no-assets", none, nil, nil, security.DefaultParams()})

		dangling := danglingClone(t, d.Layout)
		for _, p := range paramSweep() {
			cases = append(cases, assessCase{fmt.Sprintf("%s/dangling/thresh%d", name, p.ThreshER), dangling, nil, nil, p})
		}
	}
	return cases
}

// danglingClone returns a clone of l in which every seventh placed
// combinational cell drives nothing: its output nets lose their sinks, so
// it is dangling and its sites are exploitable.
func danglingClone(t *testing.T, l *layout.Layout) *layout.Layout {
	t.Helper()
	c := l.Clone()
	cut := 0
	for i, in := range c.Netlist.Insts {
		if i%7 != 0 || in.Master.Class != tech.Comb || !c.PlacementOf(in).Placed {
			continue
		}
		for _, pc := range in.Conns {
			if p := in.Master.Pin(pc.Pin); p != nil && p.Dir == tech.Output && pc.Net != nil {
				pc.Net.Sinks = nil
			}
		}
		cut++
	}
	if cut == 0 {
		t.Fatal("no cell made dangling")
	}
	return c
}

// TestAssessMatchesReference checks the assessment kernel against the
// reference above on every case of referenceCases.
func TestAssessMatchesReference(t *testing.T) {
	for _, c := range referenceCases(t) {
		got, err := security.Assess(c.l, c.routes, c.timing, c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := refAssess(c.l, c.routes, c.timing, c.p)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		sameAssessment(t, c.name, got, want)
	}
}

// TestAssessWorkspaceMatchesFresh runs one workspace through every case
// of referenceCases — other designs, placements, thresholds, routes and
// timing one after another — and requires each assessment to equal a fresh
// Assess, twice over so every case also follows a different predecessor.
func TestAssessWorkspaceMatchesFresh(t *testing.T) {
	cases := referenceCases(t)
	var ws security.Workspace
	for pass := 0; pass < 2; pass++ {
		for i := range cases {
			c := cases[i]
			if pass == 1 {
				c = cases[len(cases)-1-i]
			}
			want, err := security.Assess(c.l, c.routes, c.timing, c.p)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			got, err := ws.Assess(c.l, c.routes, c.timing, c.p)
			if err != nil {
				t.Fatalf("%s: workspace: %v", c.name, err)
			}
			sameAssessment(t, fmt.Sprintf("%s (pass %d)", c.name, pass), got, want)
		}
	}
	// An invalid call leaves the workspace usable.
	c := cases[0]
	if _, err := ws.Assess(c.l, c.routes, c.timing, security.Params{ThreshER: 20, TrojanCell: "GHOST"}); err == nil {
		t.Fatal("unknown trojan cell accepted")
	}
	want, _ := security.Assess(c.l, c.routes, c.timing, c.p)
	got, err := ws.Assess(c.l, c.routes, c.timing, c.p)
	if err != nil {
		t.Fatal(err)
	}
	sameAssessment(t, c.name+" after an error", got, want)
}

// TestAssessWorkspaceAllocs pins what a recycled assessment allocates:
// nothing, on designs of different sizes. A kernel that sizes any buffer
// per call allocates on every call.
func TestAssessWorkspaceAllocs(t *testing.T) {
	for _, name := range []string{"PRESENT", "openMSP430_2", "AES_1"} {
		d, err := benchdesigns.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		l := d.Layout
		routes, err := route.Route(l, route.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		timing, err := sta.Analyze(l, sta.Options{Constraints: d.Cons, Routes: routes})
		if err != nil {
			t.Fatal(err)
		}
		p := security.DefaultParams()
		var ws security.Workspace
		if _, err := ws.Assess(l, routes, timing, p); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(5, func() {
			if _, err := ws.Assess(l, routes, timing, p); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("%s: %v allocations per recycled Assess, want none", name, n)
		}
	}
}
