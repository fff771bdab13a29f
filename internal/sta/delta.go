package sta

// Delta-STA: re-propagate only the fanout/fanin cones of nets whose
// electrical characterization changed, against a donor full analysis.
//
// The donor retains every per-net array (arrival, wire delay, required
// time, load) and the levelized graph. A changed net is re-characterized;
// if its wire delay or load actually differs (exact float comparison), the
// change propagates:
//
//   - Forward: a combinational instance re-evaluates iff one of its input
//     nets' wire delay or arrival changed, or one of its output nets' load
//     changed. Arrivals are compared exactly after re-evaluation; equal
//     values prune the cone (arrival is a pure function of the inputs, so
//     equal inputs ⇒ equal outputs downstream). The sweep walks levels
//     ascending, so every re-evaluation sees final inputs.
//   - Backward: a net's required time recomputes iff its own wire delay
//     changed, a sink's output-net load or required time changed. The
//     sweep walks depth buckets descending; exact comparison prunes.
//
// TNS/WNS endpoint recording is a float sum whose value depends on
// accumulation order, so it always rescans every endpoint in the same
// net-ID order as the full analysis — an O(nets) scan with no propagation.
// Per-instance slack recomputes only for instances adjacent to a net whose
// arrival or required time moved. The result is bit-identical to a full
// AnalyzeWithGraph on the new state; the delta equality tests check this
// exactly.

import (
	"gdsiiguard/internal/fault"
	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/tech"
)

// DeltaStats reports how much of the graph a delta analysis actually
// re-propagated.
type DeltaStats struct {
	// ChangedNets is the number of nets marked changed by the caller.
	ChangedNets int
	// ConeInsts is the number of combinational instances re-evaluated in
	// the forward sweep.
	ConeInsts int
	// ConeNets is the number of nets whose required time was recomputed in
	// the backward sweep.
	ConeNets int
}

// AnalyzeDelta analyzes l against a donor result, re-propagating only the
// cones of nets with changed[id] set (nets whose routed segments or
// surrounding congestion differ from the donor evaluation — route.Warm's
// ChangedNets mask). The donor must come from an Analyze of the same
// netlist under the same constraints; incompatibility returns (nil, stats,
// nil) and the caller falls back to a full analysis.
func AnalyzeDelta(l *layout.Layout, opt Options, donor *Result, changed []bool) (*Result, DeltaStats, error) {
	var ds DeltaStats
	if err := fault.Hit(fault.STA); err != nil {
		return nil, ds, err
	}
	period, err := effectivePeriod(opt)
	if err != nil {
		return nil, ds, err
	}
	nl := l.Netlist
	if donor == nil || donor.graph == nil || donor.PeriodPS != period ||
		donor.graph.numInsts != len(nl.Insts) || donor.graph.numNets != len(nl.Nets) ||
		len(changed) != len(nl.Nets) || len(donor.netArr) != len(nl.Nets) {
		return nil, ds, nil
	}
	defer staDeltaSeconds.Start().Stop()
	g := donor.graph

	e := &engine{
		l: l, opt: opt, period: period, g: g,
		netArr:  append([]float64(nil), donor.netArr...),
		netWire: append([]float64(nil), donor.netWire...),
		netReq:  append([]float64(nil), donor.netReq...),
		netCap:  append([]float64(nil), donor.netCap...),
	}

	// Re-characterize changed nets, tracking which actually moved.
	wireChanged := make([]bool, len(nl.Nets))
	capChanged := make([]bool, len(nl.Nets))
	for id, ch := range changed {
		if !ch {
			continue
		}
		ds.ChangedNets++
		oldWire, oldCap := e.netWire[id], e.netCap[id]
		e.characterize(nl.Nets[id])
		wireChanged[id] = e.netWire[id] != oldWire
		capChanged[id] = e.netCap[id] != oldCap
	}

	// Forward cone. arrMoved tracks nets whose arrival differs from the
	// donor's (for the slack rescan at the end).
	instDirty := make([]bool, len(nl.Insts))
	arrMoved := make([]bool, len(nl.Nets))
	markSinkInsts := func(n *netlist.Net) {
		for _, s := range n.Sinks {
			if !s.IsPort() && s.Inst != nil && g.instLevel[s.Inst.ID] >= 0 {
				instDirty[s.Inst.ID] = true
			}
		}
	}
	for id := range nl.Nets {
		n := nl.Nets[id]
		if wireChanged[id] {
			markSinkInsts(n) // sink arrIn = arr + wire changed
		}
		if !capChanged[id] || !n.HasDriver() || n.Driver.IsPort() || n.Driver.Inst == nil {
			continue
		}
		// Load changed: the driving cell's output delay moves.
		drv := n.Driver.Inst
		switch {
		case drv.Master.Class == tech.Seq:
			old := e.netArr[id]
			e.launchSeq(drv)
			if e.netArr[id] != old {
				arrMoved[id] = true
				markSinkInsts(n)
			}
		case g.instLevel[drv.ID] >= 0:
			instDirty[drv.ID] = true
		}
	}
	for _, level := range g.levels {
		for _, iid := range level {
			if !instDirty[iid] {
				continue
			}
			ds.ConeInsts++
			in := nl.Insts[iid]
			pins := g.connPins(int(iid))
			// Re-evaluate and propagate only outputs whose arrival moved.
			for k, oc := range in.Conns {
				p := pinAt(in.Master, pins[k])
				if p == nil || p.Dir != tech.Output || oc.Net == nil {
					continue
				}
				old := e.netArr[oc.Net.ID]
				e.evalCombOne(in, oc)
				if e.netArr[oc.Net.ID] != old {
					arrMoved[oc.Net.ID] = true
					markSinkInsts(oc.Net)
				}
			}
		}
	}

	// Backward cone.
	reqDirty := make([]bool, len(nl.Nets))
	reqMoved := make([]bool, len(nl.Nets))
	markDriverInputs := func(n *netlist.Net) {
		if !n.HasDriver() || n.Driver.IsPort() || n.Driver.Inst == nil {
			return
		}
		drv := n.Driver.Inst
		if g.instLevel[drv.ID] < 0 {
			return // required times only flow through combinational cells
		}
		pins := g.connPins(drv.ID)
		for k, c := range drv.Conns {
			p := pinAt(drv.Master, pins[k])
			if p == nil || p.Dir != tech.Input || p.IsClock || c.Net == nil {
				continue
			}
			reqDirty[c.Net.ID] = true
		}
	}
	for id := range nl.Nets {
		if wireChanged[id] {
			reqDirty[id] = true // the netWire[n] term in every contribution
		}
		if capChanged[id] {
			// Every arc into this net's driver pays DriveRes×load.
			markDriverInputs(nl.Nets[id])
		}
	}
	for d := len(g.netsAtDepth) - 1; d >= 0; d-- {
		for _, id := range g.netsAtDepth[d] {
			if !reqDirty[id] {
				continue
			}
			ds.ConeNets++
			n := nl.Nets[id]
			old := e.netReq[id]
			e.netReq[id] = e.reqForNet(n)
			if e.netReq[id] != old {
				reqMoved[id] = true
				markDriverInputs(n) // strictly lower depth
			}
		}
	}

	// Endpoint recording: full rescan in the canonical order (float sum).
	res := &Result{PeriodPS: period}
	e.record(nl, res)

	// Per-instance slack: donor values stay valid unless an adjacent net's
	// arrival or required time moved.
	res.instSlack = append([]float64(nil), donor.instSlack...)
	for id := range nl.Nets {
		if !arrMoved[id] && !reqMoved[id] {
			continue
		}
		n := nl.Nets[id]
		if d := n.Driver; n.HasDriver() && !d.IsPort() && d.Inst != nil {
			res.instSlack[d.Inst.ID] = e.instWorstSlack(d.Inst)
		}
		for _, s := range n.Sinks {
			if !s.IsPort() && s.Inst != nil {
				res.instSlack[s.Inst.ID] = e.instWorstSlack(s.Inst)
			}
		}
	}
	res.netArr, res.netWire, res.netReq, res.netCap = e.netArr, e.netWire, e.netReq, e.netCap
	res.graph = g
	return res, ds, nil
}
