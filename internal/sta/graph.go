package sta

// Levelized timing graph. The netlist's combinational signal flow is a DAG
// (TopoOrder proves acyclicity); leveling it once per baseline lets every
// analysis propagate arrivals level-by-level with a parallel-for inside each
// level instead of re-deriving a topological order per run, and gives
// delta-STA the ascending/descending sweep structure its cone worklists
// need.
//
// Levels are exact dependency depths: a combinational instance's level is
// 1 + the maximum level of the combinational instances driving its
// non-clock inputs (0 when every input comes from a sequential cell or a
// port). Instances within one level are independent — each writes only the
// arrival of its own output nets (single-driver nets) and reads only nets
// at strictly lower depth — so a parallel-for over a level is bit-identical
// to any sequential topological order: arrival evaluation is a pure
// per-instance max, not an accumulation.
//
// For the backward pass the same structure is used per net: netDepth(n) is
// the level of n's combinational driver + 1 (0 for sequential-, port- or
// un-driven nets). A net's required time is a pure min over its endpoint
// and combinational-sink arc contributions, all of which read required
// times of nets at strictly greater depth, so sweeping depths descending
// with a parallel-for inside each depth bucket reproduces the sequential
// reverse-topological min exactly (min is order-free on floats).
//
// The graph depends only on netlist connectivity — not on placement, NDR,
// or routing — so one Graph serves every evaluation of a baseline,
// including all arena clones (clones preserve instance and net IDs).

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/tech"
)

// Graph is the reusable levelized view of a netlist's timing structure.
type Graph struct {
	numInsts, numNets int

	// levels holds functional combinational instance IDs by dependency
	// depth, ascending; IDs within a level are ascending.
	levels [][]int32
	// instLevel is the level of each functional combinational instance
	// (-1 for sequential, filler, and non-functional instances).
	instLevel []int32
	// netDepth is 1 + the driver's level for combinationally driven nets,
	// 0 otherwise.
	netDepth []int32
	// netsAtDepth buckets every net ID by netDepth, ascending depth,
	// ascending ID within a bucket.
	netsAtDepth [][]int32

	// connPin and sinkPin are the library pins the analysis reads,
	// resolved once: connPin[connStart[id]+k] indexes the Master.Pins of
	// instance id for its k-th connection, sinkPin[sinkStart[id]+k] that
	// of net id's k-th sink, each -1 where Master.Pin returns nil (a port
	// sink, or a pin the master lacks). Plain int32s, so the collector
	// never scans them.
	connStart, sinkStart []int32
	connPin, sinkPin     []int32
}

// connPins returns the resolved pin of each of instance id's connections,
// in Conns order.
func (g *Graph) connPins(id int) []int32 {
	return g.connPin[g.connStart[id]:g.connStart[id+1]]
}

// sinkPins returns the resolved pin of each of net id's sinks, in Sinks
// order.
func (g *Graph) sinkPins(id int) []int32 {
	return g.sinkPin[g.sinkStart[id]:g.sinkStart[id+1]]
}

// resolvePins fills the graph's pin arrays from the netlist.
func (g *Graph) resolvePins(nl *netlist.Netlist) {
	g.connStart = make([]int32, len(nl.Insts)+1)
	for i, in := range nl.Insts {
		g.connStart[i+1] = g.connStart[i] + int32(len(in.Conns))
	}
	g.connPin = make([]int32, g.connStart[len(nl.Insts)])
	for i, in := range nl.Insts {
		pins := g.connPins(i)
		for k, c := range in.Conns {
			pins[k] = int32(in.Master.PinIndex(c.Pin))
		}
	}
	g.sinkStart = make([]int32, len(nl.Nets)+1)
	for i, n := range nl.Nets {
		g.sinkStart[i+1] = g.sinkStart[i] + int32(len(n.Sinks))
	}
	g.sinkPin = make([]int32, g.sinkStart[len(nl.Nets)])
	for i, n := range nl.Nets {
		pins := g.sinkPins(i)
		for k, s := range n.Sinks {
			pins[k] = -1
			if !s.IsPort() {
				pins[k] = int32(s.Inst.Master.PinIndex(s.Pin))
			}
		}
	}
}

// NumLevels returns the number of combinational levels.
func (g *Graph) NumLevels() int { return len(g.levels) }

// BuildGraph levelizes the netlist. It fails exactly when TopoOrder does:
// on a purely combinational cycle or a combinational self-loop.
func BuildGraph(nl *netlist.Netlist) (*Graph, error) {
	g := &Graph{
		numInsts:  len(nl.Insts),
		numNets:   len(nl.Nets),
		instLevel: make([]int32, len(nl.Insts)),
		netDepth:  make([]int32, len(nl.Nets)),
	}
	for i := range g.instLevel {
		g.instLevel[i] = -1
	}
	g.resolvePins(nl)

	// Kahn's algorithm over the combinational edges (same edge guards as
	// netlist.TopoOrder), tracking the longest-path level of each node.
	indeg := make([]int32, len(nl.Insts))
	succ := make([][]int32, len(nl.Insts))
	comb := 0
	for _, in := range nl.FunctionalInsts() {
		if in.Master.Class == tech.Seq {
			continue
		}
		comb++
		g.instLevel[in.ID] = 0
		pins := g.connPins(in.ID)
		for k, c := range in.Conns {
			p := pinAt(in.Master, pins[k])
			if p == nil || p.Dir != tech.Input || p.IsClock || c.Net == nil {
				continue
			}
			d := c.Net.Driver
			if d.IsPort() || d.Inst == nil || !d.Inst.Master.IsFunctional() {
				continue
			}
			if d.Inst.Master.Class == tech.Seq {
				continue
			}
			if d.Inst == in {
				return nil, fmt.Errorf("sta: %s drives itself combinationally", in.Name)
			}
			succ[d.Inst.ID] = append(succ[d.Inst.ID], int32(in.ID))
			indeg[in.ID]++
		}
	}
	var queue []int32
	for _, in := range nl.Insts {
		if g.instLevel[in.ID] == 0 && indeg[in.ID] == 0 {
			queue = append(queue, int32(in.ID))
		}
	}
	processed := 0
	maxLevel := int32(0)
	for head := 0; head < len(queue); head++ {
		id := queue[head]
		processed++
		lv := g.instLevel[id]
		if lv > maxLevel {
			maxLevel = lv
		}
		for _, s := range succ[id] {
			if l := lv + 1; l > g.instLevel[s] {
				g.instLevel[s] = l
			}
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if processed != comb {
		return nil, fmt.Errorf("sta: combinational cycle detected (%d of %d leveled)", processed, comb)
	}

	g.levels = make([][]int32, maxLevel+1)
	for _, in := range nl.Insts { // ID order → ascending IDs per level
		if lv := g.instLevel[in.ID]; lv >= 0 {
			g.levels[lv] = append(g.levels[lv], int32(in.ID))
		}
	}

	for _, n := range nl.Nets {
		d := n.Driver
		if n.HasDriver() && !d.IsPort() && d.Inst != nil && g.instLevel[d.Inst.ID] >= 0 {
			g.netDepth[n.ID] = g.instLevel[d.Inst.ID] + 1
		}
	}
	g.netsAtDepth = make([][]int32, maxLevel+2)
	for _, n := range nl.Nets {
		dp := g.netDepth[n.ID]
		g.netsAtDepth[dp] = append(g.netsAtDepth[dp], int32(n.ID))
	}
	return g, nil
}

// staWorkersSetting is the configured worker count; 0 means auto
// (GOMAXPROCS).
var staWorkersSetting atomic.Int32

// SetWorkers sets the number of workers level-parallel STA uses. 0 (the
// default) selects GOMAXPROCS; 1 forces the sequential path. The setting is
// process-wide and safe to change between analyses.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	staWorkersSetting.Store(int32(n))
}

// Workers returns the configured worker count (0 = auto).
func Workers() int { return int(staWorkersSetting.Load()) }

const (
	// parallelMinItems is the per-level (or per-bucket) size below which
	// the sequential loop always wins.
	parallelMinItems = 256
	// minItemsPerWorker bounds how small a chunk may get.
	minItemsPerWorker = 64
)

// ResolvedWorkers reports how many workers a level of numItems items will
// actually use under the current setting — 1 means the sequential path.
func ResolvedWorkers(numItems int) int {
	if numItems < parallelMinItems {
		return 1
	}
	n := int(staWorkersSetting.Load())
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if max := numItems / minItemsPerWorker; n > max {
		n = max
	}
	if n < 1 {
		n = 1
	}
	return n
}

// parallelFor runs f over [0, n) in w contiguous chunks. Each index must be
// independent of every other (pure per-item computation with disjoint
// writes); with w == 1 it degenerates to the plain loop.
func parallelFor(n, w int, f func(lo, hi int)) {
	if w <= 1 || n <= 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		lo, hi := i*n/w, (i+1)*n/w
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
