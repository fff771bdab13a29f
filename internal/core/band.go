package core

// Band-parallel exploitable-mass computation. The operator stage's progress
// measure (exploitableMass) builds the below-index over every row of the
// layout; at SoC scale (hundreds of rows, 10⁵–10⁶ sites) that build
// dominates the operator's runtime. Because the index is row-ordered, the
// build partitions cleanly: W contiguous row bands each build a local
// union-find in parallel, then the bands are merged by concatenating the
// local parent/weight arrays into one global union-find and unioning the
// overlaps between each band's top row and the next band's bottom row — the
// same merge-scan extend() uses between adjacent rows.
//
// The result is bit-identical to the sequential build: a union-find's
// component partition is independent of union order, and mass() consumes
// only the partition and per-root weights. The property tests in
// band_test.go check band-parallel against sequential on randomized run
// layouts and on full CellShift runs.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"gdsiiguard/internal/layout"
)

// operatorBandWorkers is the configured worker count; 0 means auto
// (GOMAXPROCS).
var operatorBandWorkers atomic.Int32

// SetOperatorBandWorkers sets the number of workers the operator stage uses
// for band-parallel mass computation. 0 (the default) selects GOMAXPROCS;
// 1 forces the sequential path. The setting is process-wide and safe to
// change between operator invocations.
func SetOperatorBandWorkers(n int) {
	if n < 0 {
		n = 0
	}
	operatorBandWorkers.Store(int32(n))
}

// OperatorBandWorkers returns the configured worker count (0 = auto).
func OperatorBandWorkers() int { return int(operatorBandWorkers.Load()) }

const (
	// bandParallelMinRows is the layout height below which the sequential
	// path always wins (goroutine + merge overhead beats the scan).
	bandParallelMinRows = 128
	// minRowsPerBand bounds how thin a band may get.
	minRowsPerBand = 32
)

// resolveBandWorkers returns the effective worker count for a layout of
// numRows rows: 1 when the layout is too small or parallelism is disabled.
func resolveBandWorkers(numRows int) int {
	if numRows < bandParallelMinRows {
		return 1
	}
	n := int(operatorBandWorkers.Load())
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if max := numRows / minRowsPerBand; n > max {
		n = max
	}
	if n < 1 {
		n = 1
	}
	return n
}

// bandRowSource appends row r's free runs (ascending by start) to buf,
// using b's private scratch; it must be safe for concurrent calls on
// distinct bands.
type bandRowSource func(b *bandLocal, r int, buf []freeRun) []freeRun

// bandLocal is one worker's state: a private below-index over the band's
// rows plus a copy of the band's bottom row (the merge seam with the band
// below). All storage is reused across calls.
type bandLocal struct {
	ix     belowIndex
	runBuf []layout.SiteRun
	bottom []freeRun
}

// build constructs the band's local index over rows [lo, hi).
func (b *bandLocal) build(src bandRowSource, lo, hi int) {
	ix := &b.ix
	ix.reset()
	b.bottom = b.bottom[:0]
	for r := lo; r < hi; r++ {
		ix.extend(src(b, r, ix.nextTopBuf()))
		if r == lo {
			// The first extend assigns the bottom row local ids 0..n-1.
			b.bottom = append(b.bottom, ix.topRuns...)
		}
	}
}

// bandScratch owns the per-worker bands and the merged global union-find,
// reused across mass computations.
type bandScratch struct {
	bands          []bandLocal
	offs           []int
	parent, weight []int
}

// mass computes the exploitable free mass over numRows rows using W
// parallel bands. The global component partition it derives is identical
// to the sequential single-index build.
func (bs *bandScratch) mass(numRows, threshER, W int, src bandRowSource) int {
	if cap(bs.bands) < W {
		bs.bands = make([]bandLocal, W)
	}
	bs.bands = bs.bands[:W]
	var wg sync.WaitGroup
	for b := 0; b < W; b++ {
		lo, hi := b*numRows/W, (b+1)*numRows/W
		wg.Add(1)
		go func(b, lo, hi int) {
			defer wg.Done()
			bs.bands[b].build(src, lo, hi)
		}(b, lo, hi)
	}
	wg.Wait()

	// Concatenate the local union-finds, offsetting parent pointers. Local
	// weights are only valid at local roots, which map to global roots
	// until the seam unions below fold them — exactly as in extend().
	total := 0
	for b := range bs.bands {
		total += len(bs.bands[b].ix.parent)
	}
	bs.parent = sized(bs.parent, total)
	bs.weight = sized(bs.weight, total)
	bs.offs = sized(bs.offs, W)
	off := 0
	for b := range bs.bands {
		bs.offs[b] = off
		lp, lw := bs.bands[b].ix.parent, bs.bands[b].ix.weight
		for i := range lp {
			bs.parent[off+i] = lp[i] + off
			bs.weight[off+i] = lw[i]
		}
		off += len(lp)
	}
	find := func(x int) int {
		for bs.parent[x] != x {
			bs.parent[x] = bs.parent[bs.parent[x]]
			x = bs.parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			bs.parent[ra] = rb
			bs.weight[rb] += bs.weight[ra]
		}
	}

	// Seams: union overlaps between band b−1's top row and band b's bottom
	// row by the same merge-scan extend() applies between adjacent rows.
	for b := 1; b < W; b++ {
		prev, cur := &bs.bands[b-1], &bs.bands[b]
		prevBase := bs.offs[b-1] + prev.ix.topOff
		curBase := bs.offs[b] // bottom-row runs hold local ids 0..n-1
		pt, bt := prev.ix.topRuns, cur.bottom
		i, j := 0, 0
		for i < len(pt) && j < len(bt) {
			a, c := pt[i], bt[j]
			if a.start < c.start+c.length && c.start < a.start+a.length {
				union(prevBase+i, curBase+j)
			}
			if a.start+a.length < c.start+c.length {
				i++
			} else {
				j++
			}
		}
	}

	m := 0
	for i := range bs.parent {
		if bs.parent[i] == i && bs.weight[i] >= threshER {
			m += bs.weight[i]
		}
	}
	return m
}

// layoutRowSource adapts a layout's free-run scan to a band row source.
func layoutRowSource(l *layout.Layout) bandRowSource {
	return func(b *bandLocal, r int, buf []freeRun) []freeRun {
		b.runBuf = l.AppendFreeRuns(r, b.runBuf[:0])
		for _, run := range b.runBuf {
			buf = append(buf, freeRun{run.Start, run.Len})
		}
		return buf
	}
}

// ExploitableFreeMass computes the operator stage's progress measure — the
// total weight of empty-site components at or above threshER — honoring the
// band-worker setting. It is the entry point for comparing the sequential
// and band-parallel paths on SoC-scale layouts.
func ExploitableFreeMass(l *layout.Layout, threshER int) int {
	e := enginePool.Get().(*shiftEngine)
	m := e.exploitableMass(l, threshER)
	e.release()
	return m
}

// ResolvedOperatorBandWorkers reports how many band workers the operator
// stage will actually use for a layout with numRows rows under the current
// setting — 1 means the sequential path (single CPU, small layout, or an
// explicit SetOperatorBandWorkers(1)).
func ResolvedOperatorBandWorkers(numRows int) int {
	return resolveBandWorkers(numRows)
}
