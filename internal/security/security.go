// Package security implements the layout-security metrics of Knechtel et
// al. (ISPD 2022) as used by the paper:
//
//   - Exploitable distance: per security-critical cell, the maximal routing
//     distance at which a smallest Trojan (one NAND gate) can still be
//     attached to a positive-slack path through the cell without violating
//     timing (Definition 2.2, prerequisite 2).
//   - Exploitable sites: placement sites that are free for Trojan insertion
//     (empty, or holding non-functional filler/tap cells) and lie within
//     some asset's exploitable distance.
//   - Exploitable regions: connected components of exploitable sites
//     (vertical/horizontal adjacency) whose total weight reaches Thresh_ER.
//   - ERsites / ERtracks: total free placement sites of all exploitable
//     regions, and total unused routing tracks over them.
//
// The Security score of an optimized layout is the α-weighted sum of its
// ERsites/ERtracks normalized by the baseline layout (§II-C).
package security

import (
	"fmt"
	"math"
	"slices"

	"gdsiiguard/internal/geom"
	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/route"
	"gdsiiguard/internal/sta"
	"gdsiiguard/internal/tech"
)

// Params configures the assessment.
type Params struct {
	// ThreshER is the minimal component weight (sites) for a region to be
	// exploitable; the paper uses 20 (taken from the A2 Trojan).
	ThreshER int
	// TrojanCell names the library cell representing the smallest Trojan
	// (default NAND2_X1).
	TrojanCell string
	// MaxRadiusDBU caps the exploitable distance (default: core diagonal).
	MaxRadiusDBU int64
	// TrojanWireFactor scales the attacker's effective wire capacitance:
	// Trojan routing must detour through leftover tracks, stacks vias, and
	// hangs off a minimum-size gate, so it sees far worse RC than the
	// victim's optimized nets (default 8).
	TrojanWireFactor float64
}

// DefaultParams returns the paper's configuration (Thresh_ER = 20, taken
// from the A2 Trojan).
func DefaultParams() Params {
	return Params{ThreshER: 20, TrojanCell: "NAND2_X1", TrojanWireFactor: 3}
}

// Region is one exploitable region: a connected set of exploitable site
// runs.
type Region struct {
	// Sites is the region weight (total exploitable sites).
	Sites int
	// Runs are the maximal horizontal runs making up the region.
	Runs []layout.SiteRun
}

// Assessment is the security evaluation of one layout.
type Assessment struct {
	// Regions are the exploitable regions (weight ≥ ThreshER).
	Regions []Region
	// ERSites is Σ region weights — the paper's Free Placement Sites.
	ERSites int
	// ERTracks is the unused routing tracks over all exploitable regions —
	// the paper's Free Routing Tracks.
	ERTracks float64
	// ExploitableSites counts all exploitable sites before thresholding.
	ExploitableSites int
	// FreeSites is the raw count of non-functional sites in the core.
	FreeSites int
	// Assets is the number of security-critical instances found.
	Assets int
}

// Assess evaluates the layout. timing supplies per-asset slack for the
// exploitable distance (nil means unconstrained: every free site within any
// distance of an asset counts, i.e. the loose-timing worst case). routes
// supplies track usage for ERtracks (nil leaves ERTracks at zero).
func Assess(l *layout.Layout, routes *route.Result, timing *sta.Result, p Params) (*Assessment, error) {
	return assess(l, routes, timing, p, nil)
}

// Workspace is the memory of an assessment, recycled from one Assess to
// the next: the Assessment itself, its Regions and the one slab their Runs
// are carved from, the flat exploitable mask and chamfer buffer, the
// assets' slacks, and the run list, per-row run offsets and union-find
// arrays of the region search. Every assessment rewrites everything it
// reads before it reads it, so an assessment in a workspace equals a fresh
// one whatever the workspace last held.
//
// An Assessment computed in a workspace is valid only until the
// workspace's next Assess, which rewrites it in place. A Workspace is not
// safe for concurrent use.
type Workspace struct {
	a       *Assessment
	regions []Region
	slab    []layout.SiteRun // every region's Runs, region after region

	mask   []bool  // exploitable sites, row-major
	reach  []int64 // remaining exploitable distance per site, row-major
	slacks []float64

	runs    []layout.SiteRun // maximal runs of exploitable sites, row by row
	rowRuns []int32          // row r's runs are runs[rowRuns[r]:rowRuns[r+1]]
	parent  []int32          // union-find over runs, then each run's group
	groupOf []int32          // the group of each union-find root
	groups  []group
}

// group is one connected component of runs, in order of its first run.
type group struct {
	sites int
	// runs counts the component's runs; next is where its next run goes
	// in the slab (-1 below the threshold).
	runs, next int32
}

// Assess is Assess into the workspace's memory, equal to it. The result
// is valid until the workspace's next Assess.
func (ws *Workspace) Assess(l *layout.Layout, routes *route.Result, timing *sta.Result, p Params) (*Assessment, error) {
	return assess(l, routes, timing, p, ws)
}

// assess is the assessment kernel. It works in ws, or in a fresh workspace
// when ws is nil: that Assessment holds only its regions and their runs.
func assess(l *layout.Layout, routes *route.Result, timing *sta.Result, p Params, ws *Workspace) (*Assessment, error) {
	if p.ThreshER <= 0 {
		return nil, fmt.Errorf("security: ThreshER must be positive")
	}
	if p.TrojanCell == "" {
		p.TrojanCell = "NAND2_X1"
	}
	if ws == nil {
		ws = new(Workspace)
	}
	radius, nAssets, err := ws.assetRadius(l, timing, p)
	if err != nil {
		return nil, err
	}
	if ws.a == nil {
		ws.a = new(Assessment)
	}
	a := ws.a
	*a = Assessment{Assets: nAssets}

	ws.exploitableMask(l)
	ws.reachMask(l, radius)
	// Exploitable sites: free AND within reach.
	for i, free := range ws.mask {
		if !free {
			continue
		}
		a.FreeSites++
		if ws.reach[i] >= 0 {
			a.ExploitableSites++
		} else {
			ws.mask[i] = false
		}
	}

	a.Regions = ws.components(l, p.ThreshER)
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

// sized returns buf resliced to n, or a new slice when its capacity is
// short; the contents are stale either way.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Score is the paper's security objective: the α-weighted normalized sum of
// remaining free sites and tracks (§II-C). Lower is more secure. A baseline
// with zero ERsites/ERtracks contributes zero for that term.
func Score(opt, base *Assessment, alpha float64) float64 {
	s := 0.0
	if base.ERSites > 0 {
		s += alpha * float64(opt.ERSites) / float64(base.ERSites)
	}
	if base.ERTracks > 0 {
		s += (1 - alpha) * opt.ERTracks / base.ERTracks
	}
	return s
}

// exploitableMask marks, in ws.mask, the sites that are free for Trojan
// insertion: empty, held by non-functional cells (fillers, taps), or held
// by dangling functional cells — cells none of whose outputs is observed,
// which an attacker can remove or repurpose (Definition 2.2). Every site
// starts free; each placed functional cell that is not dangling clears
// the sites it occupies, which are exactly its placement's.
func (ws *Workspace) exploitableMask(l *layout.Layout) {
	w := l.SitesPerRow
	ws.mask = sized(ws.mask, l.NumRows*w)
	for i := range ws.mask {
		ws.mask[i] = true
	}
	for _, in := range l.Netlist.Insts {
		if !in.Master.IsFunctional() {
			continue
		}
		pl := l.PlacementOf(in)
		if !pl.Placed || isDangling(in) {
			continue
		}
		clear(ws.mask[pl.Row*w+pl.Site : pl.Row*w+pl.Site+in.Master.WidthSites])
	}
}

// isDangling reports whether a functional cell has outputs but none of them
// reaches any sink (instance pin or port).
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

// assetRadius computes the security-critical instances' exploitable
// distance in DBU, per the paper's procedure: take the slack of paths
// through the assets, subtract the inserted NAND's delay, and convert the
// remaining slack into routing distance via the wire RC model. It also
// returns the number of assets.
func (ws *Workspace) assetRadius(l *layout.Layout, timing *sta.Result, p Params) (int64, int, error) {
	lib := l.Lib()
	trojan := lib.Cell(p.TrojanCell)
	if trojan == nil {
		return 0, 0, fmt.Errorf("security: trojan cell %q not in library", p.TrojanCell)
	}
	maxRadius := p.MaxRadiusDBU
	if maxRadius <= 0 {
		core := l.CoreRect()
		maxRadius = core.W() + core.H()
	}
	// Trojan attachment delay: the NAND drives a short stub; its input
	// loads the victim net.
	var nandIntrinsic, nandRes, nandInCap float64
	if out := trojan.OutputPin(); out != nil && len(trojan.Arcs) > 0 {
		nandIntrinsic = trojan.Arcs[0].Intrinsic
		nandRes = trojan.Arcs[0].DriveRes
	}
	for _, pin := range trojan.Pins { // the first of InputPins, unallocated
		if pin.Dir == tech.Input && !pin.IsClock {
			nandInCap = pin.Cap
			break
		}
	}
	// Wire RC on the estimation layer (metal3), derated for the attacker's
	// detoured, via-heavy routing.
	layer := lib.Layer(3)
	if layer == nil {
		layer = lib.Layer(lib.NumLayers() / 2)
	}
	factor := p.TrojanWireFactor
	if factor <= 0 {
		factor = 3
	}
	rPerUM, cPerUM := layer.RPerUM, layer.CPerUM*factor

	// The exploitable distance is a single design-wide figure (§II-A):
	// the tightest positive-slack path through any asset bounds how far
	// the Trojan may route, because timing must still close after
	// insertion. Timing-tight designs therefore have short exploitable
	// distances; loose designs let it spread across the whole core.
	// Only paths with positive slack are extractable for Trojan insertion.
	// The design-wide exploitable distance derives from the lower quartile
	// of the assets' positive path slacks: representative of the tightly
	// constrained asset paths while robust to a few off-path outliers.
	slacks := ws.slacks[:0]
	n := 0
	for _, in := range l.Netlist.Insts {
		if !in.SecurityCritical {
			continue
		}
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
	ws.slacks = slacks
	slack := math.Inf(1)
	if timing != nil {
		if len(slacks) == 0 {
			slack = 0
		} else {
			slices.Sort(slacks)
			slack = slacks[len(slacks)/4]
		}
	}
	radius := maxRadius
	if !math.IsInf(slack, 1) {
		budget := slack - nandIntrinsic - nandRes*nandInCap
		if budget <= 0 {
			radius = 0
		} else {
			// Solve 0.5·r·c·L² + nandRes·c·L − budget = 0 for L (µm).
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
	return radius, n, nil
}

// reachMask computes in ws.reach, for every site, the maximal remaining
// budget max_a(radius − manhattanDist(site, a)) over the placed assets a
// via a two-pass chamfer sweep; a site is within exploitable distance iff
// its value is ≥ 0. Sites unreachable from any asset hold a large negative
// value.
func (ws *Workspace) reachMask(l *layout.Layout, radius int64) {
	const negInf = int64(math.MinInt64 / 4)
	w, h := l.SitesPerRow, l.NumRows
	siteW, siteH := l.Lib().Site.Width, l.Lib().Site.Height
	phi := sized(ws.reach, w*h)
	ws.reach = phi
	for i := range phi {
		phi[i] = negInf
	}
	for _, in := range l.Netlist.Insts {
		if !in.SecurityCritical {
			continue
		}
		p := l.PlacementOf(in)
		if !p.Placed {
			continue
		}
		row := phi[p.Row*w : (p.Row+1)*w]
		for s := p.Site; s < p.Site+in.Master.WidthSites && s < w; s++ {
			if radius > row[s] {
				row[s] = radius
			}
		}
	}
	// Forward sweep.
	for r := 0; r < h; r++ {
		row := phi[r*w : (r+1)*w]
		for s := 0; s < w; s++ {
			if s > 0 && row[s-1]-siteW > row[s] {
				row[s] = row[s-1] - siteW
			}
			if r > 0 && phi[(r-1)*w+s]-siteH > row[s] {
				row[s] = phi[(r-1)*w+s] - siteH
			}
		}
	}
	// Backward sweep.
	for r := h - 1; r >= 0; r-- {
		row := phi[r*w : (r+1)*w]
		for s := w - 1; s >= 0; s-- {
			if s < w-1 && row[s+1]-siteW > row[s] {
				row[s] = row[s+1] - siteW
			}
			if r < h-1 && phi[(r+1)*w+s]-siteH > row[s] {
				row[s] = phi[(r+1)*w+s] - siteH
			}
		}
	}
}

// components finds the connected components of ws.mask's sites
// (4-adjacency within rows and across vertically aligned sites of adjacent
// rows) with a union-find over maximal runs, and returns those with weight
// ≥ thresh as Regions: in order of their first run, each with its runs in
// run order (row by row, left to right).
func (ws *Workspace) components(l *layout.Layout, thresh int) []Region {
	w, h := l.SitesPerRow, l.NumRows
	runs := ws.runs[:0]
	rowRuns := sized(ws.rowRuns, h+1)
	for r := 0; r < h; r++ {
		rowRuns[r] = int32(len(runs))
		row := ws.mask[r*w : (r+1)*w]
		for s := 0; s < w; {
			if !row[s] {
				s++
				continue
			}
			start := s
			for s < w && row[s] {
				s++
			}
			runs = append(runs, layout.SiteRun{Row: r, Start: start, Len: s - start})
		}
	}
	rowRuns[h] = int32(len(runs))
	ws.runs, ws.rowRuns = runs, rowRuns

	parent := sized(ws.parent, len(runs))
	ws.parent = parent
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	// Connect vertically overlapping runs in adjacent rows. Both rows' runs
	// are disjoint and in start order, so a merge that steps past whichever
	// run ends first meets every overlapping pair.
	for r := 1; r < h; r++ {
		i, iEnd := rowRuns[r], rowRuns[r+1]
		j, jEnd := rowRuns[r-1], rowRuns[r]
		for i < iEnd && j < jEnd {
			a, b := runs[i], runs[j]
			if a.Start < b.Start+b.Len && b.Start < a.Start+a.Len {
				if ra, rb := find(i), find(j); ra != rb {
					parent[ra] = rb
				}
			}
			if a.Start+a.Len < b.Start+b.Len {
				i++
			} else {
				j++
			}
		}
	}

	// Number the components in order of their first run; parent[i]
	// becomes run i's component.
	groupOf := sized(ws.groupOf, len(runs))
	ws.groupOf = groupOf
	for i := range parent {
		parent[i] = find(int32(i))
		groupOf[i] = -1
	}
	groups := ws.groups[:0]
	for i, root := range parent {
		g := groupOf[root]
		if g < 0 {
			g = int32(len(groups))
			groupOf[root] = g
			groups = append(groups, group{})
		}
		parent[i] = g
		groups[g].sites += runs[i].Len
		groups[g].runs++
	}
	ws.groups = groups

	// Carve the regions' runs from one slab, region after region.
	nRegions, nRuns := 0, int32(0)
	for g := range groups {
		groups[g].next = -1
		if groups[g].sites >= thresh {
			groups[g].next = nRuns
			nRuns += groups[g].runs
			nRegions++
		}
	}
	if nRegions == 0 {
		return nil
	}
	slab := sized(ws.slab, int(nRuns))
	regions := sized(ws.regions, nRegions)
	ws.slab, ws.regions = slab, regions
	k := 0
	for _, g := range groups {
		if g.next >= 0 {
			regions[k] = Region{Sites: g.sites, Runs: slab[g.next : g.next+g.runs : g.next+g.runs]}
			k++
		}
	}
	for i, g := range parent {
		if next := groups[g].next; next >= 0 {
			slab[next] = runs[i]
			groups[g].next++
		}
	}
	return regions
}
