package route

// Wave-parallel pattern routing as a bounded speculate–validate–redo loop.
// The batch (canonical order) is cut into windows of w·minNetsPerWorker
// nets. Workers route every net of a window once, speculatively, against
// the usage committed before the window (the snapshot) plus that net's own
// writes, which land in a per-net overlay. A sequential commit pass then
// walks the window in canonical order, keeping a mask of every GCell
// written since the snapshot:
//
//   - if the net's two-pin read rectangles miss the mask, its speculative
//     route is accepted and its usage booked;
//   - otherwise the net is routed again right there by the sequential
//     router, against live usage;
//
// and either way the committed segments join the mask.
//
// Invariant: at every net's commit turn, live usage equals the usage the
// sequential loop holds at that net's turn. By induction: commits happen
// in canonical order, and each books exactly the per-cell additions the
// sequential loop makes for that net. The router's reads and writes for a
// net are confined to its per-connection read rectangles (the containment
// touchesDelta relies on for warm starts). Live usage differs from the
// snapshot only on masked cells, so an accepted net read exactly the
// sequential state. Its own writes were replayed through the overlay with
// effective values, so even the floating-point accumulation order within
// the net matches. A redone net reads the sequential state directly.
//
// The overlay must be per net, not per worker batch: a redone net's
// discarded speculative writes never reach the mask, so a later net of the
// same worker that read them would be accepted with a stale decision.
//
// Speculating a window costs about 1/w of routing it sequentially, plus
// the redo of every conflicting net, so it only pays while fewer than a
// fraction 1 − 1/w of the window's nets conflict. The commit pass counts
// the conflicts even when it routed the whole window inline, and the next
// window is speculated only if this one stayed under that fraction. The
// first window of each batch is always speculated. On the small benchmark
// designs the long nets that come first conflict almost always, so most of
// their windows are routed inline; on large designs few nets conflict and
// nearly every window is speculated. Either way the result is the same.
//
// Cost bound: every net is routed speculatively at most once and inline at
// most once, so a batch of N nets costs at most 2N net routes. Beyond that,
// the commit pass tests each net's read rectangles against the mask and
// clears the mask after each window by walking the window's committed
// segments; the overlay resets in O(1). There is no requeue, so nothing is
// quadratic in the batch size.
//
// Tie-breaking needs no coordination: candidate selection is strict-less
// cost comparison (first-best wins deterministically) and rip-up victim
// ordering is a per-net hash of the seed, so no shared rand stream exists
// to race on.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// routeWorkersSetting is the configured worker count; 0 means auto
// (GOMAXPROCS).
var routeWorkersSetting atomic.Int32

// SetWorkers sets the number of workers wave-parallel routing uses. 0 (the
// default) selects GOMAXPROCS; 1 forces the sequential path. The setting is
// process-wide and safe to change between route invocations.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	routeWorkersSetting.Store(int32(n))
}

// Workers returns the configured worker count (0 = auto).
func Workers() int { return int(routeWorkersSetting.Load()) }

const (
	// parallelMinNets is the batch size below which the sequential loop
	// always wins (goroutine + overlay overhead beats the speculation).
	parallelMinNets = 192
	// minNetsPerWorker is each worker's share of a speculation window, and
	// bounds how many workers a batch can use.
	minNetsPerWorker = 24
)

// ResolvedWorkers reports how many workers the router will actually use for
// a batch of numNets nets under the current setting: the setting (GOMAXPROCS
// when 0), capped at numNets/minNetsPerWorker. 1 means the sequential path
// (single CPU, a batch under parallelMinNets nets, or an explicit
// SetWorkers(1)). With w > 1 workers the batch is routed in windows of
// w·minNetsPerWorker nets, each net speculated at most once.
func ResolvedWorkers(numNets int) int {
	if numNets < parallelMinNets {
		return 1
	}
	n := int(routeWorkersSetting.Load())
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if most := numNets / minNetsPerWorker; n > most {
		n = most
	}
	if n < 1 {
		n = 1
	}
	return n
}

// speculated counts nets routed speculatively, for tests that bound the
// speculation work of a batch.
var speculated atomic.Int64

// netOrderHash is a splitmix64-style mix of (seed, net ID): the
// self-contained per-net tie-break key used to order rip-up victims.
func netOrderHash(seed int64, id int32) uint64 {
	x := uint64(seed) ^ (uint64(uint32(id))+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// usageOverlay is a worker's private view of one net's track usage during
// speculation: the *effective* usage value at each (layer, GCell) the net
// has written, stored densely and valid where the cell's mark equals the
// current generation. Storing effective values — seeded from the committed
// snapshot on first write — rather than deltas keeps the floating-point
// addition order within a net identical to committing against the live
// grid: base + s1 + s2 associates left-to-right in both.
type usageOverlay struct {
	cells int // GCells per layer
	val   []float64
	mark  []uint32
	gen   uint32
}

func newUsageOverlay(layers, cells int) *usageOverlay {
	return &usageOverlay{
		cells: cells,
		val:   make([]float64, layers*cells),
		mark:  make([]uint32, layers*cells),
		gen:   1,
	}
}

// reset forgets every write by advancing the generation.
func (o *usageOverlay) reset() {
	o.gen++
	if o.gen == 0 {
		clear(o.mark)
		o.gen = 1
	}
}

// add books scale at (li, idx), seeding the effective value from base (the
// committed snapshot) on first touch.
func (o *usageOverlay) add(li, idx int, base, scale float64) {
	k := li*o.cells + idx
	if o.mark[k] == o.gen {
		o.val[k] += scale
	} else {
		o.mark[k] = o.gen
		o.val[k] = base + scale
	}
}

// routeWaves routes the given nets (canonical order) with w speculative
// workers, one window of w·minNetsPerWorker nets at a time.
func (r *router) routeWaves(order []int32, w int) {
	layers, cells := len(r.res.Usage), r.res.Grid.Cols*r.res.Grid.Rows
	workers := make([]*router, w)
	for i := range workers {
		workers[i] = &router{l: r.l, res: r.res, geo: r.geo, seed: r.seed, ladders: r.ladders, spec: newUsageOverlay(layers, cells)}
	}
	window := w * minNetsPerWorker
	specs := make([]*NetRoute, window)
	written := newDeltaMask(r.res.Grid)

	for lo, specOn := 0, true; lo < len(order); lo += window {
		batch := order[lo:min(lo+window, len(order))]
		sp := specs[:len(batch)]
		if specOn {
			speculate(workers, batch, sp)
		}

		// Commit in canonical order, routing inline every net that was not
		// speculated or whose read rectangles meet a cell written since
		// the snapshot.
		painted := false
		conflicts := 0
		for i, oi := range batch {
			if len(r.geo.Conns[oi]) == 0 {
				continue // routes nothing, conflicts with nothing
			}
			hit := painted && r.touchesDelta(written, oi)
			if hit {
				conflicts++
			}
			nr := sp[i]
			switch {
			case nr == nil:
				nr = r.buildGeoNet(int(oi))
				sp[i] = nr
			case hit:
				r.rerouteGeoNet(nr, int(oi))
			default:
				r.book(nr.Segments)
			}
			r.res.NetRoutes[nr.Net.ID] = nr
			written.addSegments(nr.Segments)
			painted = true
		}
		// Speculate the next window only if this one's conflicts stayed
		// under the break-even fraction 1 − 1/w.
		specOn = conflicts*w < (w-1)*len(batch)
		for i, nr := range sp {
			if nr != nil {
				written.clearSegments(nr.Segments)
				sp[i] = nil
			}
		}
	}
}

// speculate routes batch[i] into out[i] against the committed snapshot.
// Worker wi takes nets wi, wi+w, wi+2w, …: the window is in descending-HPWL
// order, so striding spreads its long nets across the workers, and the
// assignment stays a fixed function of the window. The calling goroutine is
// worker 0. res.Usage is not written meanwhile.
func speculate(workers []*router, batch []int32, out []*NetRoute) {
	var wg sync.WaitGroup
	for wi := 1; wi < len(workers) && wi < len(batch); wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			workers[wi].speculateStride(batch, out, wi, len(workers))
		}()
	}
	workers[0].speculateStride(batch, out, 0, len(workers))
	wg.Wait()
}

// speculateStride routes nets from, from+step, … of the window, each
// against the snapshot plus its own writes: the overlay is reset before
// every net, so no net sees another's speculative usage.
func (r *router) speculateStride(batch []int32, out []*NetRoute, from, step int) {
	n := 0
	for i := from; i < len(batch); i += step {
		r.spec.reset()
		out[i] = r.buildGeoNet(int(batch[i]))
		n++
	}
	speculated.Add(int64(n))
}
