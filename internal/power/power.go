// Package power is the power analysis engine: total power is the sum of
// leakage (every instance, fillers included), internal switching energy of
// functional cells, and net switching power 0.5·α·C·V²·f with wire
// capacitance taken from the routed lengths under the active NDR.
//
// Fill-based defenses (BISA, Ba et al.) add cells, so leakage and internal
// power rise; Routing Width Scaling raises wire capacitance, so switching
// power rises: the model responds to every knob the defenses turn.
package power

import (
	"fmt"

	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/route"
	"gdsiiguard/internal/sdc"
)

// Options configures a power analysis run.
type Options struct {
	// Constraints supplies the clock frequency (required).
	Constraints *sdc.Constraints
	// Routes supplies wire lengths; when nil, HPWL on
	// tech.Library.EstimateLayer is used.
	Routes *route.Result
	// Activity is the average toggle rate per clock cycle (default 0.15).
	Activity float64
}

// Result is a power report in milliwatts.
type Result struct {
	LeakageMW   float64
	InternalMW  float64
	SwitchingMW float64
	TotalMW     float64
}

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("total %.3f mW (leak %.3f, int %.3f, sw %.3f)",
		r.TotalMW, r.LeakageMW, r.InternalMW, r.SwitchingMW)
}

// Analyze computes the power of the placed (and optionally routed) layout.
func Analyze(l *layout.Layout, opt Options) (Result, error) {
	if opt.Constraints == nil || opt.Constraints.PrimaryClock() == nil {
		return Result{}, fmt.Errorf("power: no clock constraint")
	}
	if opt.Activity <= 0 {
		opt.Activity = 0.15
	}
	lib := l.Lib()
	fGHz := 1000.0 / opt.Constraints.PrimaryClock().PeriodPS // ps -> GHz
	var res Result

	for _, in := range l.Netlist.Insts {
		// nW -> mW
		res.LeakageMW += in.Master.Leakage * 1e-6
		if in.Master.IsFunctional() {
			// fJ per toggle × toggles/s: α·f(GHz)·E(fJ) => 1e9·1e-15 J/s
			// = 1e-6 W = 1e-3 mW.
			res.InternalMW += opt.Activity * fGHz * in.Master.InternalEnergy * 1e-3
		}
	}

	vdd2 := lib.Vdd * lib.Vdd
	for _, n := range l.Netlist.Nets {
		c := netCapFF(l, n, opt)
		act := opt.Activity
		if n.IsClock {
			act = 1.0 // clock toggles every cycle (twice, folded into C model)
		}
		// 0.5·α·C(fF)·V²·f(GHz): 1e-15 F × 1e9 /s = 1e-6 W = 1e-3 mW.
		res.SwitchingMW += 0.5 * act * c * vdd2 * fGHz * 1e-3
	}
	res.TotalMW = res.LeakageMW + res.InternalMW + res.SwitchingMW
	return res, nil
}

// netCapFF returns the net's total capacitance in fF: sink pin caps plus
// wire capacitance under the active NDR.
func netCapFF(l *layout.Layout, n *netlist.Net, opt Options) float64 {
	lib := l.Lib()
	c := 0.0
	for _, s := range n.Sinks {
		if s.IsPort() {
			c += 2.0
			continue
		}
		if p := s.Inst.Master.Pin(s.Pin); p != nil {
			c += p.Cap
		}
	}
	if opt.Routes != nil && n.ID < len(opt.Routes.NetRoutes) && opt.Routes.NetRoutes[n.ID] != nil {
		nr := opt.Routes.NetRoutes[n.ID]
		for metal := 1; metal < len(nr.LenByMetal); metal++ {
			if nr.LenByMetal[metal] == 0 {
				continue
			}
			layer := lib.Layer(metal)
			scale := l.NDR.LayerScale(metal)
			c += lib.DBUToMicrons(nr.LenByMetal[metal]) * layer.CPerUM * (0.7 + 0.3*scale)
		}
	} else {
		layer := lib.EstimateLayer()
		scale := l.NDR.LayerScale(layer.Index)
		c += lib.DBUToMicrons(l.NetHPWL(n)) * layer.CPerUM * (0.7 + 0.3*scale)
	}
	return c
}
