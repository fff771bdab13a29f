// Package sta is the graph-based static timing analysis engine: arrival and
// required times propagate over the netlist's levelized combinational DAG
// using the library's linear delay model (intrinsic + drive-resistance ×
// load) plus a distributed-Elmore wire delay from routed (or estimated) net
// lengths. Levels propagate with a parallel-for inside each level; the
// result is bit-identical to a sequential topological sweep because arrival
// is a pure per-instance max and required time a pure per-net min (see
// graph.go for the argument).
//
// Slack is reported per endpoint (TNS/WNS) and per instance — the
// per-instance worst slack feeds the exploitable-distance computation of the
// security metric, and TNS is one of the two objectives of the
// multi-objective flow optimizer.
package sta

import (
	"fmt"
	"math"

	"gdsiiguard/internal/fault"
	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/route"
	"gdsiiguard/internal/sdc"
	"gdsiiguard/internal/tech"
)

// Options configures an analysis run.
type Options struct {
	// Constraints supplies the clock period and I/O delays (required).
	Constraints *sdc.Constraints
	// Routes supplies per-net routed lengths by layer; when nil, wire RC is
	// estimated from HPWL on a mid-stack layer.
	Routes *route.Result
	// EstimateLayer is the 1-based metal index used for HPWL-based RC
	// estimation when Routes is nil (default 3).
	EstimateLayer int
}

// Result is the outcome of one STA run. All times are picoseconds.
type Result struct {
	// TNS is total negative slack (≤ 0; 0 is timing-clean).
	TNS float64
	// WNS is the worst endpoint slack (may be positive).
	WNS float64
	// Endpoints is the number of timing endpoints checked.
	Endpoints int
	// Violating is the number of endpoints with negative slack.
	Violating int
	// PeriodPS is the effective clock period used.
	PeriodPS float64

	instSlack []float64 // worst slack through each instance, by ID
	netArr    []float64 // arrival at each net's driver pin, by net ID
	// The remaining per-net arrays and the levelized graph are retained so
	// the result can donate to AnalyzeDelta, which re-propagates only the
	// cones of changed nets against them.
	netWire []float64
	netReq  []float64
	netCap  []float64
	graph   *Graph
}

// InstSlack returns the worst slack of any path through the instance, in
// ps. Instances off the timing graph report +Inf.
func (r *Result) InstSlack(in *netlist.Instance) float64 {
	if in.ID >= len(r.instSlack) {
		return math.Inf(1)
	}
	return r.instSlack[in.ID]
}

// NetArrival returns the arrival time at the net's driver pin.
func (r *Result) NetArrival(n *netlist.Net) float64 {
	if n.ID >= len(r.netArr) {
		return 0
	}
	return r.netArr[n.ID]
}

// Graph returns the levelized graph the analysis ran on.
func (r *Result) Graph() *Graph { return r.graph }

// Analyze runs STA on the placed (and optionally routed) layout, levelizing
// the netlist first. Callers that analyze one netlist many times should
// BuildGraph once and use AnalyzeWithGraph.
func Analyze(l *layout.Layout, opt Options) (*Result, error) {
	return AnalyzeWithGraph(l, opt, nil)
}

// AnalyzeWithGraph is Analyze with a prebuilt levelized graph of l's
// netlist (nil builds one). The graph depends only on netlist connectivity,
// so one graph serves every placement/NDR/routing variant of a design.
func AnalyzeWithGraph(l *layout.Layout, opt Options, g *Graph) (*Result, error) {
	if err := fault.Hit(fault.STA); err != nil {
		return nil, err
	}
	defer staSeconds.Start().Stop()
	period, err := effectivePeriod(opt)
	if err != nil {
		return nil, err
	}
	nl := l.Netlist
	if g == nil || g.numInsts != len(nl.Insts) || g.numNets != len(nl.Nets) {
		if g, err = BuildGraph(nl); err != nil {
			return nil, err
		}
	}

	e := &engine{
		l: l, opt: opt, period: period, g: g,
		netArr:  make([]float64, len(nl.Nets)),
		netWire: make([]float64, len(nl.Nets)),
		netReq:  make([]float64, len(nl.Nets)),
		netCap:  make([]float64, len(nl.Nets)),
	}

	// Net electrical characterization: pure per net.
	parallelFor(len(nl.Nets), ResolvedWorkers(len(nl.Nets)), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e.characterize(nl.Nets[i])
		}
	})

	// Forward propagation. Startpoints first: primary inputs and
	// sequential clk->Q launches (disjoint single-driver writes).
	for _, n := range nl.Nets {
		if n.HasDriver() && n.Driver.IsPort() {
			e.netArr[n.ID] = opt.Constraints.InputDelayPS
		}
	}
	parallelFor(len(nl.Insts), ResolvedWorkers(len(nl.Insts)), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if in := nl.Insts[i]; in.Master.Class == tech.Seq {
				e.launchSeq(in)
			}
		}
	})
	// Then the combinational levels, ascending; instances within a level
	// are independent.
	for _, level := range g.levels {
		lv := level
		parallelFor(len(lv), ResolvedWorkers(len(lv)), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				e.evalComb(nl.Insts[lv[i]])
			}
		})
	}

	// Backward propagation: per-net required times, depth buckets
	// descending (each net reads only strictly deeper nets).
	for d := len(g.netsAtDepth) - 1; d >= 0; d-- {
		bucket := g.netsAtDepth[d]
		parallelFor(len(bucket), ResolvedWorkers(len(bucket)), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				id := bucket[i]
				e.netReq[id] = e.reqForNet(nl.Nets[id])
			}
		})
	}

	res := &Result{PeriodPS: period}
	e.record(nl, res)

	// Per-instance worst slack: pure per instance.
	res.instSlack = make([]float64, len(nl.Insts))
	parallelFor(len(nl.Insts), ResolvedWorkers(len(nl.Insts)), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			res.instSlack[i] = e.instWorstSlack(nl.Insts[i])
		}
	})
	res.netArr, res.netWire, res.netReq, res.netCap = e.netArr, e.netWire, e.netReq, e.netCap
	res.graph = g
	return res, nil
}

func effectivePeriod(opt Options) (float64, error) {
	if opt.Constraints == nil || opt.Constraints.PrimaryClock() == nil {
		return 0, fmt.Errorf("sta: no clock constraint")
	}
	clk := opt.Constraints.PrimaryClock()
	period := clk.PeriodPS - clk.UncertaintyPS
	if period <= 0 {
		return 0, fmt.Errorf("sta: non-positive effective period %g ps", period)
	}
	return period, nil
}

type engine struct {
	l      *layout.Layout
	opt    Options
	period float64
	g      *Graph // the netlist's levels and resolved pins

	netArr  []float64 // arrival at driver output pin
	netWire []float64 // distributed wire delay driver->sink
	netReq  []float64 // required time at driver output pin
	netCap  []float64
}

// characterize computes the wire RC delay and caches the total load of a
// net under the current NDR. Pure per net: safe for a parallel-for.
func (e *engine) characterize(n *netlist.Net) {
	lib := e.l.Lib()
	var rw, cw float64 // total wire R (kΩ) and C (fF)
	if e.opt.Routes != nil && n.ID < len(e.opt.Routes.NetRoutes) && e.opt.Routes.NetRoutes[n.ID] != nil {
		nr := e.opt.Routes.NetRoutes[n.ID]
		for metal := 1; metal < len(nr.LenByMetal); metal++ {
			lenUM := lib.DBUToMicrons(nr.LenByMetal[metal])
			if lenUM == 0 {
				continue
			}
			layer := lib.Layer(metal)
			scale := e.l.NDR.LayerScale(metal)
			// Wider wires: resistance drops ∝ 1/scale; capacitance grows
			// sub-linearly (area term scales, fringe does not).
			rw += lenUM * layer.RPerUM / scale
			cw += lenUM * layer.CPerUM * (0.7 + 0.3*scale)
		}
		// Congested areas force detours and add coupling: wire RC grows
		// with the average track utilization along the route, bounded by
		// the worst realistic detour factor.
		if cg := e.opt.Routes.NetCongestion(n.ID); cg > 0.6 {
			if cg > 1.3 {
				cg = 1.3
			}
			f := 1 + 1.5*(cg-0.6)
			rw *= f
			cw *= f
		}
	} else {
		layer := lib.Layer(e.opt.EstimateLayer)
		if layer == nil {
			layer = lib.Layer(lib.NumLayers() / 2)
		}
		lenUM := lib.DBUToMicrons(e.l.NetHPWL(n))
		scale := e.l.NDR.LayerScale(layer.Index)
		rw = lenUM * layer.RPerUM / scale
		cw = lenUM * layer.CPerUM * (0.7 + 0.3*scale)
	}
	e.netWire[n.ID] = 0.5 * rw * cw
	pinCap := 0.0
	pins := e.g.sinkPins(n.ID)
	for k, s := range n.Sinks {
		if s.IsPort() {
			pinCap += 2.0 // output pad load
			continue
		}
		if p := pinAt(s.Inst.Master, pins[k]); p != nil {
			pinCap += p.Cap
		}
	}
	e.netCap[n.ID] = pinCap + cw
}

func (e *engine) netLoad(n *netlist.Net) float64 { return e.netCap[n.ID] }

// launchSeq sets the clk->Q arrival of a sequential cell's output nets.
func (e *engine) launchSeq(in *netlist.Instance) {
	pins := e.g.connPins(in.ID)
	for k, c := range in.Conns {
		p := pinAt(in.Master, pins[k])
		if p == nil || p.Dir != tech.Output || c.Net == nil {
			continue
		}
		arc := in.Master.Arc(clockPinName(in.Master), c.Pin)
		res := 0.0
		clk2q := in.Master.ClkToQ
		if arc != nil {
			res = arc.DriveRes
			clk2q = arc.Intrinsic
		}
		e.netArr[c.Net.ID] = clk2q + res*e.netLoad(c.Net)
	}
}

// evalComb computes the arrival at each output net of a combinational cell.
// Pure per instance: reads only strictly lower-level nets, writes only its
// own (single-driver) output nets.
func (e *engine) evalComb(in *netlist.Instance) {
	pins := e.g.connPins(in.ID)
	for k, oc := range in.Conns {
		p := pinAt(in.Master, pins[k])
		if p == nil || p.Dir != tech.Output || oc.Net == nil {
			continue
		}
		e.evalCombOne(in, oc)
	}
}

// evalCombOne computes the arrival of a single output net of a
// combinational cell: the worst over its input arcs.
func (e *engine) evalCombOne(in *netlist.Instance, oc netlist.PinConn) {
	pins := e.g.connPins(in.ID)
	worst := 0.0
	for k, ic := range in.Conns {
		ip := pinAt(in.Master, pins[k])
		if ip == nil || ip.Dir != tech.Input || ip.IsClock || ic.Net == nil {
			continue
		}
		arc := in.Master.Arc(ic.Pin, oc.Pin)
		if arc == nil {
			continue
		}
		arrIn := e.netArr[ic.Net.ID] + e.netWire[ic.Net.ID]
		d := arrIn + arc.Intrinsic + arc.DriveRes*e.netLoad(oc.Net)
		if d > worst {
			worst = d
		}
	}
	e.netArr[oc.Net.ID] = worst
}

// reqForNet computes the required time at the net's driver pin: the min
// over its endpoint contributions (port outputs, sequential D inputs) and
// the arcs through its combinational sinks. Reads required times only of
// nets at strictly greater depth; min over floats is order-free, so the
// value equals the sequential reverse-topological accumulation exactly.
func (e *engine) reqForNet(n *netlist.Net) float64 {
	req := math.Inf(1)
	spins := e.g.sinkPins(n.ID)
	for k, s := range n.Sinks {
		if s.IsPort() {
			if r := e.period - e.opt.Constraints.OutputDelayPS - e.netWire[n.ID]; r < req {
				req = r
			}
			continue
		}
		in := s.Inst
		ip := pinAt(in.Master, spins[k])
		if in.Master.Class == tech.Seq {
			if ip != nil && !ip.IsClock && ip.Dir == tech.Input {
				if r := e.period - in.Master.Setup - e.netWire[n.ID]; r < req {
					req = r
				}
			}
			continue
		}
		if !in.Master.IsFunctional() {
			continue
		}
		if ip == nil || ip.Dir != tech.Input || ip.IsClock {
			continue
		}
		pins := e.g.connPins(in.ID)
		for j, oc := range in.Conns {
			p := pinAt(in.Master, pins[j])
			if p == nil || p.Dir != tech.Output || oc.Net == nil {
				continue
			}
			arc := in.Master.Arc(s.Pin, oc.Pin)
			if arc == nil {
				continue
			}
			r := e.netReq[oc.Net.ID] - arc.Intrinsic - arc.DriveRes*e.netLoad(oc.Net) - e.netWire[n.ID]
			if r < req {
				req = r
			}
		}
	}
	return req
}

// record scans every endpoint in net-ID order and accumulates TNS/WNS.
// The float TNS sum is order-dependent, so this pass is sequential and
// identical across the full and delta analyses.
func (e *engine) record(nl *netlist.Netlist, res *Result) {
	res.TNS, res.WNS, res.Endpoints, res.Violating = 0, math.Inf(1), 0, 0
	record := func(slack float64) {
		res.Endpoints++
		if slack < res.WNS {
			res.WNS = slack
		}
		if slack < 0 {
			res.TNS += slack
			res.Violating++
		}
	}
	for _, n := range nl.Nets {
		arrAtSink := e.netArr[n.ID] + e.netWire[n.ID]
		pins := e.g.sinkPins(n.ID)
		for k, s := range n.Sinks {
			switch {
			case s.IsPort():
				record(e.period - e.opt.Constraints.OutputDelayPS - arrAtSink)
			case s.Inst.Master.Class == tech.Seq:
				if p := pinAt(s.Inst.Master, pins[k]); p != nil && !p.IsClock && p.Dir == tech.Input {
					record(e.period - s.Inst.Master.Setup - arrAtSink)
				}
			}
		}
	}
	if math.IsInf(res.WNS, 1) {
		res.WNS = 0 // no endpoints
	}
}

// instWorstSlack computes the worst slack of any path through the instance:
// pure per instance (reads only net arrays).
func (e *engine) instWorstSlack(in *netlist.Instance) float64 {
	worst := math.Inf(1)
	pins := e.g.connPins(in.ID)
	for k, c := range in.Conns {
		if c.Net == nil {
			continue
		}
		p := pinAt(in.Master, pins[k])
		if p == nil || p.IsClock || c.Net.IsClock {
			continue
		}
		s := e.netReq[c.Net.ID] - e.netArr[c.Net.ID]
		if !math.IsInf(s, 1) && s < worst {
			worst = s
		}
	}
	return worst
}

// pinAt returns the pin a graph's resolved index names, or nil for -1.
func pinAt(c *tech.Cell, i int32) *tech.Pin {
	if i < 0 {
		return nil
	}
	return &c.Pins[i]
}

func clockPinName(c *tech.Cell) string {
	if p := c.ClockPin(); p != nil {
		return p.Name
	}
	return "CK"
}
