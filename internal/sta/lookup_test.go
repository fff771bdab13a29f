package sta_test

import (
	"math"
	"testing"

	"gdsiiguard/internal/benchdesigns"
	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/route"
	"gdsiiguard/internal/sta"
	"gdsiiguard/internal/tech"
)

// smallSoC is a scaled-down stamped SoC: a 2×2 tile grid with two clock
// domains and one macro tile.
func smallSoC(t *testing.T) *benchdesigns.SoCDesign {
	t.Helper()
	d, err := benchdesigns.SoCSpec{
		Name: "SoC_pins_t", TilesX: 2, TilesY: 2, ClockDomains: 2, MacroEvery: 3,
		ChannelRows: 4, ChannelSites: 40,
		Tile: benchdesigns.Spec{Name: "soc_tile", StateBits: 32, KeyBits: 32, Depth: 3, Width: 24,
			Util: 0.25, TimingMargin: 1.10, Activity: 0.18, Seed: 7},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// checkGraphPins requires every resolved connection and sink pin of g to
// name the pin Master.Pin returns, and -1 exactly where it returns nil or
// the sink is a port.
func checkGraphPins(t *testing.T, name string, nl *netlist.Netlist, g *sta.Graph) (resolved, unresolved int) {
	t.Helper()
	check := func(what string, m *tech.Cell, pin string, got int32) {
		want := m.Pin(pin)
		switch {
		case want == nil && got != -1:
			t.Fatalf("%s: %s pin %q of %s resolved to %d, want -1", name, what, pin, m.Name, got)
		case want != nil && (got < 0 || int(got) >= len(m.Pins) || &m.Pins[got] != want):
			t.Fatalf("%s: %s pin %q of %s resolved to %d, want the index of %p", name, what, pin, m.Name, got, want)
		case want == nil:
			unresolved++
		default:
			resolved++
		}
	}
	for _, in := range nl.Insts {
		pins := g.ConnPins(in.ID)
		if len(pins) != len(in.Conns) {
			t.Fatalf("%s: %s has %d resolved connections, want %d", name, in.Name, len(pins), len(in.Conns))
		}
		for k, c := range in.Conns {
			check("instance "+in.Name, in.Master, c.Pin, pins[k])
		}
	}
	for _, n := range nl.Nets {
		pins := g.SinkPins(n.ID)
		if len(pins) != len(n.Sinks) {
			t.Fatalf("%s: net %s has %d resolved sinks, want %d", name, n.Name, len(pins), len(n.Sinks))
		}
		for k, s := range n.Sinks {
			if s.IsPort() {
				if pins[k] != -1 {
					t.Fatalf("%s: net %s port sink %s resolved to %d, want -1", name, n.Name, s.Port.Name, pins[k])
				}
				unresolved++
				continue
			}
			check("net "+n.Name+" sink", s.Inst.Master, s.Pin, pins[k])
		}
	}
	return resolved, unresolved
}

// TestGraphPinsMatchLookup checks BuildGraph's resolved pins against
// Master.Pin on every benchmark design, on a stamped SoC, on a netlist
// given a connection and a sink whose pin its master lacks, and on a
// master that names a pin twice.
func TestGraphPinsMatchLookup(t *testing.T) {
	for _, name := range benchdesigns.Names() {
		d, err := benchdesigns.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		nl := d.Layout.Netlist
		g, err := sta.BuildGraph(nl)
		if err != nil {
			t.Fatal(err)
		}
		resolved, ports := checkGraphPins(t, name, nl, g)
		if resolved == 0 || ports == 0 {
			t.Fatalf("%s: want both resolved pins and port sinks, got %d and %d", name, resolved, ports)
		}
	}
	soc := smallSoC(t)
	g, err := sta.BuildGraph(soc.Layout.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	checkGraphPins(t, soc.Spec.Name, soc.Layout.Netlist, g)

	// Pins the master lacks, which netlist.Connect would refuse: appended
	// by hand, they must resolve to -1 and be skipped by the analysis.
	d, err := benchdesigns.Build("PRESENT")
	if err != nil {
		t.Fatal(err)
	}
	nl := d.Layout.Netlist
	var in *netlist.Instance
	for _, c := range nl.Insts {
		if c.Master.Class == tech.Comb {
			in = c
			break
		}
	}
	n := in.Conns[0].Net
	in.Conns = append(in.Conns, netlist.PinConn{Pin: "NO_SUCH_PIN", Net: n})
	n.Sinks = append(n.Sinks, netlist.Terminal{Inst: in, Pin: "NO_SUCH_SINK"})
	if g, err = sta.BuildGraph(nl); err != nil {
		t.Fatal(err)
	}
	if _, unresolved := checkGraphPins(t, "PRESENT+unknown", nl, g); unresolved == 0 {
		t.Fatal("unknown pins not seen")
	}
	// A master that names a pin twice: Master.Pin keeps the last.
	lib := tech.NewLibrary("dup")
	lib.AddCell(&tech.Cell{Name: "DUP", Class: tech.Comb, WidthSites: 1, Pins: []tech.Pin{
		{Name: "A", Dir: tech.Input}, {Name: "Z", Dir: tech.Output}, {Name: "A", Dir: tech.Input, Cap: 1},
	}})
	dup := netlist.New("dup", lib)
	a, _ := dup.AddNet("a")
	z, _ := dup.AddNet("z")
	inst, err := dup.AddInstance("u", "DUP")
	if err != nil {
		t.Fatal(err)
	}
	if err := dup.Connect(inst, "A", a); err != nil {
		t.Fatal(err)
	}
	if err := dup.Connect(inst, "Z", z); err != nil {
		t.Fatal(err)
	}
	gd, err := sta.BuildGraph(dup)
	if err != nil {
		t.Fatal(err)
	}
	checkGraphPins(t, "duplicate pin", dup, gd)

	got, err := sta.AnalyzeWithGraph(d.Layout, sta.Options{Constraints: d.Cons}, g)
	if err != nil {
		t.Fatal(err)
	}
	want := refAnalyze(t, d.Layout, sta.Options{Constraints: d.Cons})
	sameAsReference(t, "PRESENT+unknown", d.Layout, got, want)
}

// refResult is what the lookup engine below computes.
type refResult struct {
	tns, wns                  float64
	endpoints, violating      int
	arr, wire, req, cap, slck []float64
}

// refAnalyze is the analysis as it was before pins were resolved per graph:
// every pin is a Master.Pin lookup. It walks netlist.TopoOrder forward and
// a memoized recursion backward instead of levels; arrival is a max and
// required time a min, so the order does not change a bit, and endpoints
// are recorded in net-ID order as the engine records them.
func refAnalyze(t *testing.T, l *layout.Layout, opt sta.Options) refResult {
	t.Helper()
	nl, lib := l.Netlist, l.Lib()
	clk := opt.Constraints.PrimaryClock()
	period := clk.PeriodPS - clk.UncertaintyPS
	nn := len(nl.Nets)
	r := refResult{arr: make([]float64, nn), wire: make([]float64, nn), req: make([]float64, nn),
		cap: make([]float64, nn), slck: make([]float64, len(nl.Insts))}

	for _, n := range nl.Nets {
		var rw, cw float64
		if opt.Routes != nil && n.ID < len(opt.Routes.NetRoutes) && opt.Routes.NetRoutes[n.ID] != nil {
			nr := opt.Routes.NetRoutes[n.ID]
			for metal := 1; metal < len(nr.LenByMetal); metal++ {
				lenUM := lib.DBUToMicrons(nr.LenByMetal[metal])
				if lenUM == 0 {
					continue
				}
				layer := lib.Layer(metal)
				scale := l.NDR.LayerScale(metal)
				rw += lenUM * layer.RPerUM / scale
				cw += lenUM * layer.CPerUM * (0.7 + 0.3*scale)
			}
			if cg := opt.Routes.NetCongestion(n.ID); cg > 0.6 {
				if cg > 1.3 {
					cg = 1.3
				}
				f := 1 + 1.5*(cg-0.6)
				rw *= f
				cw *= f
			}
		} else {
			layer := lib.EstimateLayer()
			lenUM := lib.DBUToMicrons(l.NetHPWL(n))
			scale := l.NDR.LayerScale(layer.Index)
			rw = lenUM * layer.RPerUM / scale
			cw = lenUM * layer.CPerUM * (0.7 + 0.3*scale)
		}
		r.wire[n.ID] = 0.5 * rw * cw
		pinCap := 0.0
		for _, s := range n.Sinks {
			if s.IsPort() {
				pinCap += 2.0
				continue
			}
			if p := s.Inst.Master.Pin(s.Pin); p != nil {
				pinCap += p.Cap
			}
		}
		r.cap[n.ID] = pinCap + cw
	}

	for _, n := range nl.Nets {
		if n.HasDriver() && n.Driver.IsPort() {
			r.arr[n.ID] = opt.Constraints.InputDelayPS
		}
	}
	order, err := nl.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range nl.Insts {
		if in.Master.Class != tech.Seq {
			continue
		}
		for _, c := range in.Conns {
			p := in.Master.Pin(c.Pin)
			if p == nil || p.Dir != tech.Output || c.Net == nil {
				continue
			}
			ck := "CK"
			if cp := in.Master.ClockPin(); cp != nil {
				ck = cp.Name
			}
			arc := in.Master.Arc(ck, c.Pin)
			res, clk2q := 0.0, in.Master.ClkToQ
			if arc != nil {
				res, clk2q = arc.DriveRes, arc.Intrinsic
			}
			r.arr[c.Net.ID] = clk2q + res*r.cap[c.Net.ID]
		}
	}
	for _, in := range order {
		if in.Master.Class == tech.Seq {
			continue
		}
		for _, oc := range in.Conns {
			p := in.Master.Pin(oc.Pin)
			if p == nil || p.Dir != tech.Output || oc.Net == nil {
				continue
			}
			worst := 0.0
			for _, ic := range in.Conns {
				ip := in.Master.Pin(ic.Pin)
				if ip == nil || ip.Dir != tech.Input || ip.IsClock || ic.Net == nil {
					continue
				}
				arc := in.Master.Arc(ic.Pin, oc.Pin)
				if arc == nil {
					continue
				}
				d := r.arr[ic.Net.ID] + r.wire[ic.Net.ID] + arc.Intrinsic + arc.DriveRes*r.cap[oc.Net.ID]
				if d > worst {
					worst = d
				}
			}
			r.arr[oc.Net.ID] = worst
		}
	}

	done := make([]bool, nn)
	var reqOf func(n *netlist.Net) float64
	reqOf = func(n *netlist.Net) float64 {
		if done[n.ID] {
			return r.req[n.ID]
		}
		req := math.Inf(1)
		for _, s := range n.Sinks {
			if s.IsPort() {
				if v := period - opt.Constraints.OutputDelayPS - r.wire[n.ID]; v < req {
					req = v
				}
				continue
			}
			in := s.Inst
			ip := in.Master.Pin(s.Pin)
			if in.Master.Class == tech.Seq {
				if ip != nil && !ip.IsClock && ip.Dir == tech.Input {
					if v := period - in.Master.Setup - r.wire[n.ID]; v < req {
						req = v
					}
				}
				continue
			}
			if !in.Master.IsFunctional() || ip == nil || ip.Dir != tech.Input || ip.IsClock {
				continue
			}
			for _, oc := range in.Conns {
				p := in.Master.Pin(oc.Pin)
				if p == nil || p.Dir != tech.Output || oc.Net == nil {
					continue
				}
				arc := in.Master.Arc(s.Pin, oc.Pin)
				if arc == nil {
					continue
				}
				if v := reqOf(oc.Net) - arc.Intrinsic - arc.DriveRes*r.cap[oc.Net.ID] - r.wire[n.ID]; v < req {
					req = v
				}
			}
		}
		done[n.ID] = true
		r.req[n.ID] = req
		return req
	}
	for _, n := range nl.Nets {
		reqOf(n)
	}

	r.wns = math.Inf(1)
	record := func(slack float64) {
		r.endpoints++
		if slack < r.wns {
			r.wns = slack
		}
		if slack < 0 {
			r.tns += slack
			r.violating++
		}
	}
	for _, n := range nl.Nets {
		arrAtSink := r.arr[n.ID] + r.wire[n.ID]
		for _, s := range n.Sinks {
			switch {
			case s.IsPort():
				record(period - opt.Constraints.OutputDelayPS - arrAtSink)
			case s.Inst.Master.Class == tech.Seq:
				if p := s.Inst.Master.Pin(s.Pin); p != nil && !p.IsClock && p.Dir == tech.Input {
					record(period - s.Inst.Master.Setup - arrAtSink)
				}
			}
		}
	}
	if math.IsInf(r.wns, 1) {
		r.wns = 0
	}

	for _, in := range nl.Insts {
		worst := math.Inf(1)
		for _, c := range in.Conns {
			if c.Net == nil {
				continue
			}
			p := in.Master.Pin(c.Pin)
			if p == nil || p.IsClock || c.Net.IsClock {
				continue
			}
			s := r.req[c.Net.ID] - r.arr[c.Net.ID]
			if !math.IsInf(s, 1) && s < worst {
				worst = s
			}
		}
		r.slck[in.ID] = worst
	}
	return r
}

// sameAsReference requires got to equal the reference bit for bit.
func sameAsReference(t *testing.T, name string, l *layout.Layout, got *sta.Result, want refResult) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.TNS, want.tns) || !same(got.WNS, want.wns) || got.Endpoints != want.endpoints || got.Violating != want.violating {
		t.Fatalf("%s: TNS/WNS/endpoints/violating %v/%v/%d/%d, reference %v/%v/%d/%d", name,
			got.TNS, got.WNS, got.Endpoints, got.Violating, want.tns, want.wns, want.endpoints, want.violating)
	}
	arr, wire, req, cp := got.NetArrays()
	for _, n := range l.Netlist.Nets {
		id := n.ID
		if !same(arr[id], want.arr[id]) || !same(wire[id], want.wire[id]) || !same(req[id], want.req[id]) || !same(cp[id], want.cap[id]) {
			t.Fatalf("%s: net %s arrival/wire/required/cap %v/%v/%v/%v, reference %v/%v/%v/%v", name, n.Name,
				arr[id], wire[id], req[id], cp[id], want.arr[id], want.wire[id], want.req[id], want.cap[id])
		}
	}
	slack := got.InstSlacks()
	for _, in := range l.Netlist.Insts {
		if !same(slack[in.ID], want.slck[in.ID]) {
			t.Fatalf("%s: %s slack %v, reference %v", name, in.Name, slack[in.ID], want.slck[in.ID])
		}
	}
}

// TestAnalyzeMatchesLookupEngine compares the analysis, which reads the
// graph's resolved pins, with the lookup engine above, bit for bit, on
// PRESENT and openMSP430_2 routed under three NDR scale vectors, and
// unrouted.
func TestAnalyzeMatchesLookupEngine(t *testing.T) {
	ndrs := [][]float64{
		nil, // the default rule
		{1, 1, 1.5, 1.5, 2, 2, 1.25, 1, 3, 1},
		{2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
	}
	for _, name := range []string{"PRESENT", "openMSP430_2"} {
		d, err := benchdesigns.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		l := d.Layout
		g, err := sta.BuildGraph(l.Netlist)
		if err != nil {
			t.Fatal(err)
		}
		unrouted := sta.Options{Constraints: d.Cons}
		got, err := sta.AnalyzeWithGraph(l, unrouted, g)
		if err != nil {
			t.Fatal(err)
		}
		sameAsReference(t, name+"/unrouted", l, got, refAnalyze(t, l, unrouted))
		for i, scale := range ndrs {
			if scale != nil {
				l.NDR.Scale = append(l.NDR.Scale[:0], scale...)
			}
			routes, err := route.Route(l, route.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			opt := sta.Options{Constraints: d.Cons, Routes: routes}
			got, err := sta.AnalyzeWithGraph(l, opt, g)
			if err != nil {
				t.Fatal(err)
			}
			want := refAnalyze(t, l, opt)
			sameAsReference(t, name, l, got, want)
			t.Logf("%s NDR %d: TNS %.3f WNS %.3f, %d endpoints, %d violating", name, i, got.TNS, got.WNS, got.Endpoints, got.Violating)
		}
	}
}
