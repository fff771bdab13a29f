package sta

// ConnPins, SinkPins and the Result accessors below expose the graph's
// resolved pins and a result's per-net and per-instance arrays to the
// external tests, which run on the benchmark designs (benchdesigns imports
// sta, so those tests cannot live in this package).

func (g *Graph) ConnPins(id int) []int32 { return g.connPins(id) }

func (g *Graph) SinkPins(id int) []int32 { return g.sinkPins(id) }

func (r *Result) NetArrays() (arr, wire, req, cap []float64) {
	return r.netArr, r.netWire, r.netReq, r.netCap
}

func (r *Result) InstSlacks() []float64 { return r.instSlack }
