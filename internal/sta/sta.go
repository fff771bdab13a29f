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
	// estimated from HPWL on tech.Library.EstimateLayer.
	Routes *route.Result
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
	return analyze(l, opt, g, nil)
}

// Workspace is the memory of a full analysis, recycled from one Analyze
// to the next: the Result itself, its four per-net arrays (arrival, wire
// delay, required time, load) and the per-instance slack. Every analysis
// rewrites each array before it reads it, so an analysis in a workspace is
// bit-identical to a fresh one whatever the workspace last held.
//
// A Result analyzed in a workspace is valid only until the workspace's
// next Analyze, which rewrites it in place; it may donate to AnalyzeDelta
// until then, which copies what it reads. A Workspace is not safe for
// concurrent use.
type Workspace struct {
	res *Result
	e   engine // keeps the arrays from one analysis to the next
}

// Analyze is AnalyzeWithGraph into the workspace's memory, bit-identical
// to it. The result is valid until the workspace's next Analyze.
func (ws *Workspace) Analyze(l *layout.Layout, opt Options, g *Graph) (*Result, error) {
	return analyze(l, opt, g, ws)
}

// analyze is the full analysis. It works in ws, or in a fresh workspace
// when ws is nil: that Result holds exactly its own arrays.
func analyze(l *layout.Layout, opt Options, g *Graph, ws *Workspace) (*Result, error) {
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
	if ws == nil {
		ws = new(Workspace)
	}
	if ws.res == nil {
		ws.res = new(Result)
	}
	e := &ws.e
	e.l, e.opt, e.period, e.g = l, opt, period, g
	// characterize writes every net's wire delay and load, the backward
	// pass every net's required time (each net sits in one depth bucket)
	// and the slack pass every instance's slack; only arrivals are read
	// where nothing drives them, so only they are cleared.
	e.netArr = sized(e.netArr, len(nl.Nets))
	clear(e.netArr)
	e.netWire = sized(e.netWire, len(nl.Nets))
	e.netReq = sized(e.netReq, len(nl.Nets))
	e.netCap = sized(e.netCap, len(nl.Nets))
	e.instSlack = sized(e.instSlack, len(nl.Insts))

	// Net electrical characterization: pure per net.
	e.forRange(len(nl.Nets), nil, characterizeNets)

	// Forward propagation. Startpoints first: primary inputs and
	// sequential clk->Q launches (disjoint single-driver writes).
	for _, n := range nl.Nets {
		if n.HasDriver() && n.Driver.IsPort() {
			e.netArr[n.ID] = opt.Constraints.InputDelayPS
		}
	}
	e.forRange(len(nl.Insts), nil, launchSeqs)
	// Then the combinational levels, ascending; instances within a level
	// are independent.
	for _, level := range g.levels {
		e.forRange(len(level), level, evalLevel)
	}

	// Backward propagation: per-net required times, depth buckets
	// descending (each net reads only strictly deeper nets).
	for d := len(g.netsAtDepth) - 1; d >= 0; d-- {
		bucket := g.netsAtDepth[d]
		e.forRange(len(bucket), bucket, reqBucket)
	}

	res := ws.res
	*res = Result{PeriodPS: period}
	e.record(nl, res)

	// Per-instance worst slack: pure per instance.
	e.forRange(len(nl.Insts), nil, instSlacks)
	res.instSlack = e.instSlack
	res.netArr, res.netWire, res.netReq, res.netCap = e.netArr, e.netWire, e.netReq, e.netCap
	res.graph = g
	// The workspace keeps no reference to the layout or its routes.
	e.l, e.opt = nil, Options{}
	return res, nil
}

// sized returns buf resliced to n, or a new slice when its capacity is
// short; the contents are stale either way.
func sized(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// forRange runs step over [0, n): in one call when ResolvedWorkers(n) is
// 1, otherwise in contiguous chunks on that many goroutines. ids is passed
// through to step. step is a plain function, not a closure, so the
// sequential path allocates nothing.
func (e *engine) forRange(n int, ids []int32, step func(e *engine, ids []int32, lo, hi int)) {
	if w := ResolvedWorkers(n); w > 1 {
		parallelFor(n, w, func(lo, hi int) { step(e, ids, lo, hi) })
		return
	}
	step(e, ids, 0, n)
}

func characterizeNets(e *engine, _ []int32, lo, hi int) {
	for i := lo; i < hi; i++ {
		e.characterize(e.l.Netlist.Nets[i])
	}
}

func launchSeqs(e *engine, _ []int32, lo, hi int) {
	for i := lo; i < hi; i++ {
		if in := e.l.Netlist.Insts[i]; in.Master.Class == tech.Seq {
			e.launchSeq(in)
		}
	}
}

func evalLevel(e *engine, level []int32, lo, hi int) {
	for i := lo; i < hi; i++ {
		e.evalComb(e.l.Netlist.Insts[level[i]])
	}
}

func reqBucket(e *engine, bucket []int32, lo, hi int) {
	for i := lo; i < hi; i++ {
		id := bucket[i]
		e.netReq[id] = e.reqForNet(e.l.Netlist.Nets[id])
	}
}

func instSlacks(e *engine, _ []int32, lo, hi int) {
	for i := lo; i < hi; i++ {
		e.instSlack[i] = e.instWorstSlack(e.l.Netlist.Insts[i])
	}
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

	netArr    []float64 // arrival at driver output pin
	netWire   []float64 // distributed wire delay driver->sink
	netReq    []float64 // required time at driver output pin
	netCap    []float64
	instSlack []float64 // worst slack through each instance
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
		layer := lib.EstimateLayer()
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
