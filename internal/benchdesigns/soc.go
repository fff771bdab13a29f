package benchdesigns

import (
	"fmt"
	"sort"

	"gdsiiguard/internal/gdsii"
	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/sdc"
)

// This file generates SoC-scale benchmark designs (10⁵–10⁶ cells) by tile
// stamping: one crypto-core tile (a regular Spec) is generated and placed
// once, then replicated across a TilesX × TilesY grid with name prefixes,
// stitched left-to-right through its primary inputs/outputs, clocked from
// multiple domains, and interrupted by hard-macro tiles (fixed filler
// regions under zero-density blockages). Building at this scale never runs
// global placement or routing on the full design — the tile's placement is
// stamped at row/site offsets — so a 10⁶-cell design generates in seconds.

// SoCSpec parameterizes one SoC-scale stamped design.
type SoCSpec struct {
	Name string
	// TilesX × TilesY is the stamping grid.
	TilesX, TilesY int
	// ClockDomains is the number of top-level clock ports clk0..clkN-1;
	// tile (tx,ty) clocks from domain (ty*TilesX+tx) mod ClockDomains.
	// STA uses the primary domain clk0; the others exist structurally.
	ClockDomains int
	// MacroEvery makes every MacroEvery-th tile position (raster order,
	// 1-based) a hard macro: a region of fixed filler cells under a
	// zero-density placement blockage. 0 disables macros. Tile position 0
	// is never a macro (it anchors the input stitching).
	MacroEvery int
	// ChannelRows and ChannelSites open an empty routing channel above and
	// to the right of every tile. The stitch and clock nets that cross
	// tile boundaries route through these channels instead of competing
	// with intra-tile wiring — at SoC scale that is what keeps the full
	// design first-pass routable (zero rip-up), which the warm-start /
	// delta-STA hardening path requires of its donor.
	ChannelRows, ChannelSites int
	// Tile is the per-tile generator spec.
	Tile Spec
}

// SoCSpecs are the SoC-scale presets: SoC_100k exceeds 10⁵ cells, SoC_1M
// approaches 10⁶. Both are sized to route first-pass clean (zero rip-up
// victims): the SoC tile ECO evaluates as a warm-start + delta-STA against
// the baseline route, and route.Warm requires a victimless donor.
var SoCSpecs = []SoCSpec{
	{Name: "SoC_100k", TilesX: 13, TilesY: 13, ClockDomains: 4, MacroEvery: 13,
		ChannelRows: 4, ChannelSites: 40, Tile: socTile(201)},
	{Name: "SoC_1M", TilesX: 38, TilesY: 38, ClockDomains: 8, MacroEvery: 19,
		ChannelRows: 4, ChannelSites: 40, Tile: socTile(202)},
}

// socTile is the stamped crypto-core tile: ~650 cells at a deliberately low
// utilization. ECO hardening needs headroom twice over — free sites for the
// operators to move cells into, and routing slack so the baseline routes
// without rip-up (the precondition for warm-started delta evaluation).
func socTile(seed int64) Spec {
	return Spec{
		Name: "soc_tile", StateBits: 128, KeyBits: 128, Depth: 3, Width: 80,
		Util: 0.25, TimingMargin: 1.10, Activity: 0.18, Seed: seed,
	}
}

// SoCSpecOf returns the named SoC spec.
func SoCSpecOf(name string) (SoCSpec, error) {
	for _, s := range SoCSpecs {
		if s.Name == name {
			return s, nil
		}
	}
	return SoCSpec{}, fmt.Errorf("benchdesigns: unknown SoC design %q", name)
}

// SoCDesign is one generated, placed and constrained SoC-scale benchmark.
type SoCDesign struct {
	Spec   SoCSpec
	Layout *layout.Layout
	Cons   *sdc.Constraints
	// Assets are the names of the security-critical instances.
	Assets []string
	// TileRows × TileSites is the stamping stride in site coordinates —
	// tile footprint plus its routing channel; the tile grid anchors at
	// row 0, site 0.
	TileRows, TileSites int
	// Cells is the total instance count (including macro fillers).
	Cells int
}

// Grid returns the export hierarchy matching the stamping grid.
func (d *SoCDesign) Grid() gdsii.TileGrid {
	return gdsii.TileGrid{TileRows: d.TileRows, TileSites: d.TileSites}
}

// BuildSoC generates the named SoC-scale design.
func BuildSoC(name string) (*SoCDesign, error) {
	spec, err := SoCSpecOf(name)
	if err != nil {
		return nil, err
	}
	return spec.Build()
}

// sortedKeys returns m's keys in sorted order. Ports and nets are created
// in this order, so net numbering — and with it routing order and timing —
// never depends on map iteration order.
func sortedKeys(m map[string]*netlist.Net) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// macroAt reports whether raster position idx is a hard-macro tile.
func (s SoCSpec) macroAt(idx int) bool {
	return s.MacroEvery > 0 && idx > 0 && (idx+1)%s.MacroEvery == 0
}

// Build generates the SoC design: one placed tile, then netlist replication,
// stitching, macro fill and placement stamping.
func (s SoCSpec) Build() (*SoCDesign, error) {
	if s.TilesX <= 0 || s.TilesY <= 0 {
		return nil, fmt.Errorf("benchdesigns: %s: non-positive tile grid", s.Name)
	}
	if s.ClockDomains <= 0 {
		s.ClockDomains = 1
	}
	tile, err := s.Tile.Build()
	if err != nil {
		return nil, fmt.Errorf("benchdesigns: %s tile: %w", s.Name, err)
	}
	tileNl := tile.Layout.Netlist
	tileRows, tileSites := tile.Layout.NumRows, tile.Layout.SitesPerRow

	// Classify the tile's boundary nets: port-driven input nets (stitched
	// or fed from SoC inputs) and the nets its output ports observe.
	inNet := map[string]*netlist.Net{}   // tile net name -> tile net, for in% ports
	outNets := map[string]*netlist.Net{} // out port name -> tile net
	var clkNetName string
	for _, n := range tileNl.Nets {
		if n.HasDriver() && n.Driver.IsPort() {
			if n.IsClock {
				clkNetName = n.Name
			} else {
				inNet[n.Name] = n
			}
		}
		for _, sk := range n.Sinks {
			if sk.IsPort() && sk.Port.Dir == netlist.Out && sk.Port.Name != "chk" {
				outNets[sk.Port.Name] = n
			}
		}
	}
	numIn := len(inNet)

	lib := tileNl.Lib
	nl := netlist.New(s.Name, lib)

	// Clock domains.
	clkNets := make([]*netlist.Net, s.ClockDomains)
	for d := 0; d < s.ClockDomains; d++ {
		p, err := nl.AddPort(fmt.Sprintf("clk%d", d), netlist.In)
		if err != nil {
			return nil, err
		}
		n, err := nl.AddNet(fmt.Sprintf("clk%d", d))
		if err != nil {
			return nil, err
		}
		n.IsClock = true
		if err := nl.ConnectPort(p, n); err != nil {
			return nil, err
		}
		clkNets[d] = n
	}

	// SoC primary inputs feed column-0 tiles and tiles shadowed by macros.
	socIn := make(map[string]*netlist.Net, numIn)
	for _, name := range sortedKeys(inNet) {
		p, err := nl.AddPort(name, netlist.In)
		if err != nil {
			return nil, err
		}
		n, err := nl.AddNet(name)
		if err != nil {
			return nil, err
		}
		if err := nl.ConnectPort(p, n); err != nil {
			return nil, err
		}
		socIn[name] = n
	}

	var assets []string
	prefix := func(ty, tx int) string { return fmt.Sprintf("t%02d_%02d/", ty, tx) }

	// Stamp logic tiles in raster order so left-neighbor nets exist when a
	// tile stitches to them.
	for ty := 0; ty < s.TilesY; ty++ {
		for tx := 0; tx < s.TilesX; tx++ {
			idx := ty*s.TilesX + tx
			if s.macroAt(idx) {
				continue
			}
			pfx := prefix(ty, tx)
			domain := idx % s.ClockDomains

			// Replicated internal nets.
			for _, n := range tileNl.Nets {
				if n.HasDriver() && n.Driver.IsPort() {
					continue // clock and in% nets are mapped, not copied
				}
				if _, err := nl.AddNet(pfx + n.Name); err != nil {
					return nil, err
				}
			}

			// Input stitching: interior tiles read the left logic
			// neighbor's output nets; column-0 tiles and tiles to the
			// right of a macro read the SoC inputs.
			feed := socIn
			if tx > 0 && !s.macroAt(idx-1) {
				leftPfx := prefix(ty, tx-1)
				feed = make(map[string]*netlist.Net, numIn)
				for inName := range inNet {
					// in%d reads the left tile's out%d net.
					outName := "out" + inName[2:]
					src, ok := outNets[outName]
					if !ok {
						return nil, fmt.Errorf("benchdesigns: %s: tile port %s has no matching %s", s.Name, inName, outName)
					}
					feed[inName] = nl.Net(leftPfx + src.Name)
				}
			}
			mapNet := func(n *netlist.Net) *netlist.Net {
				if n.Name == clkNetName {
					return clkNets[domain]
				}
				if n.HasDriver() && n.Driver.IsPort() {
					return feed[n.Name]
				}
				return nl.Net(pfx + n.Name)
			}

			for _, in := range tileNl.Insts {
				inst, err := nl.AddInstance(pfx+in.Name, in.Master.Name)
				if err != nil {
					return nil, err
				}
				if in.SecurityCritical {
					inst.SecurityCritical = true
					assets = append(assets, inst.Name)
				}
				for _, c := range in.Conns {
					if err := nl.Connect(inst, c.Pin, mapNet(c.Net)); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	// SoC primary outputs observe the last logic tile of the first row.
	outTx := s.TilesX - 1
	for outTx > 0 && s.macroAt(outTx) {
		outTx--
	}
	for _, portName := range sortedKeys(outNets) {
		n := outNets[portName]
		p, err := nl.AddPort(portName, netlist.Out)
		if err != nil {
			return nil, err
		}
		if err := nl.ConnectPort(p, nl.Net(prefix(0, outTx)+n.Name)); err != nil {
			return nil, err
		}
	}

	// Collect every sinkless net (per-tile chk roots, unread tile outputs
	// on the right edge) into one observed chk tree, then validate.
	if err := sweepDangling(nl); err != nil {
		return nil, err
	}
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("benchdesigns: %s: %w", s.Name, err)
	}

	// Stamp the tile placement; no global placement runs at SoC scale.
	// Each tile occupies the lower-left of its stride cell; the remaining
	// ChannelRows × ChannelSites band is the inter-tile routing channel.
	strideRows := tileRows + s.ChannelRows
	strideSites := tileSites + s.ChannelSites
	l, err := layout.New(nl, s.TilesY*strideRows, s.TilesX*strideSites)
	if err != nil {
		return nil, err
	}
	for ty := 0; ty < s.TilesY; ty++ {
		for tx := 0; tx < s.TilesX; tx++ {
			idx := ty*s.TilesX + tx
			rowOff, siteOff := ty*strideRows, tx*strideSites
			if s.macroAt(idx) {
				if err := fillMacroTile(l, ty, tx, rowOff, siteOff, tileRows, tileSites); err != nil {
					return nil, err
				}
				continue
			}
			pfx := prefix(ty, tx)
			for _, in := range tileNl.Insts {
				p := tile.Layout.PlacementOf(in)
				if !p.Placed {
					continue
				}
				inst := nl.Instance(pfx + in.Name)
				if err := l.Place(inst, rowOff+p.Row, siteOff+p.Site); err != nil {
					return nil, fmt.Errorf("benchdesigns: %s: stamping tile %d,%d: %w", s.Name, ty, tx, err)
				}
			}
		}
	}
	l.SpreadPorts()

	// Clock constraints reuse the tile-calibrated period (the stitch nets
	// add slack, not critical paths); secondary domains are slightly
	// detuned so the domains are distinguishable.
	base := tile.Cons.PrimaryClock().PeriodPS
	cons := &sdc.Constraints{}
	for d := 0; d < s.ClockDomains; d++ {
		cons.Clocks = append(cons.Clocks, sdc.Clock{
			Name:     fmt.Sprintf("clk%d", d),
			Port:     fmt.Sprintf("clk%d", d),
			PeriodPS: base * (1 + 0.05*float64(d)),
		})
	}

	return &SoCDesign{
		Spec:      s,
		Layout:    l,
		Cons:      cons,
		Assets:    assets,
		TileRows:  strideRows,
		TileSites: strideSites,
		Cells:     len(nl.Insts),
	}, nil
}

// fillMacroTile turns one tile region into a hard macro: every site is
// occupied by a fixed filler cell and the region carries a zero-density
// placement blockage, so no ECO operator moves cells into or out of it.
func fillMacroTile(l *layout.Layout, ty, tx, rowOff, siteOff, tileRows, tileSites int) error {
	nl := l.Netlist
	id := 0
	for r := 0; r < tileRows; r++ {
		site := 0
		for site < tileSites {
			w := widestFiller(tileSites - site)
			inst, err := nl.AddInstance(
				fmt.Sprintf("t%02d_%02d/fill_%d", ty, tx, id),
				fmt.Sprintf("FILLCELL_X%d", w),
			)
			if err != nil {
				return err
			}
			id++
			inst.Fixed = true
			if err := l.Place(inst, rowOff+r, siteOff+site); err != nil {
				return err
			}
			site += w
		}
	}
	l.AddBlockage(layout.Blockage{
		Row0: rowOff, Row1: rowOff + tileRows,
		Site0: siteOff, Site1: siteOff + tileSites,
		MaxDensity: 0,
	})
	return nil
}

// widestFiller returns the widest standard filler width ≤ rem.
func widestFiller(rem int) int {
	w := 1
	for _, fw := range []int{2, 4, 8, 16, 32} {
		if fw <= rem {
			w = fw
		}
	}
	return w
}
