package core

// The incremental empty-site-graph index. cellShiftPass processes rows
// bottom-up; for the row being processed it needs, per free run of the row
// below, the component root and total weight of the empty-site graph over
// all processed rows. The seed implementation rebuilt that index from
// scratch for every row — union-find over *all* processed rows, O(R²·runs)
// per pass. belowIndex is instead *extended* one row at a time: the new
// row's runs are unioned into the persistent parents/weights by one
// merge-scan against the previous top row, making a whole pass
// O(R·runs·α(runs)).
//
// Equivalence with the from-scratch build is exact: the component partition
// of a union-find is independent of union order, and componentWeight only
// consumes the partition (which top runs share a root) and the per-root
// weights — never the root ids themselves. The property test in
// cellshift_equiv_test.go checks extension against the scratch build on
// randomized run layouts.

// freeRun mirrors the paper's vertex v: a maximal run of contiguous empty
// sites in one row, in mirrored coordinates when the pass is reversed.
type freeRun struct {
	start, length int
}

// belowIndex collapses the empty-site graph of the processed rows into,
// per top-row run, a component root and per-root total weight. Those
// components are static while the next row's cells shift, so queries
// against them are cheap. All storage is reused across rows and passes.
type belowIndex struct {
	// Persistent union-find over every run added so far. weight is valid
	// at component roots only.
	parent []int
	weight []int

	// topOff is the parent index of the first top-row run; topRuns holds
	// the top row's runs (owned by the index, double-buffered with spare).
	topOff  int
	topRuns []freeRun
	spare   []freeRun

	// Projection of the below components onto the top row, recomputed on
	// each extension. shareWeight holds each root's weight on the first
	// topRun having that root (0 on the rest); rootLink chains topRuns
	// sharing a root, most-recent first.
	rootOf      []int
	shareWeight []int
	rootLink    []int
	// lastOf[root] is the most recent topRun having root, valid where
	// lastStamp[root] == stamp; both are indexed by union-find id.
	lastOf    []int
	lastStamp []uint32
	stamp     uint32

	scratch []int // reusable union-find arena for componentWeight
}

// reset empties the index for a new pass without releasing storage.
func (ix *belowIndex) reset() {
	ix.parent = ix.parent[:0]
	ix.weight = ix.weight[:0]
	ix.topOff = 0
	ix.topRuns = ix.topRuns[:0]
	ix.rootOf = ix.rootOf[:0]
	ix.shareWeight = ix.shareWeight[:0]
	ix.rootLink = ix.rootLink[:0]
}

// nextTopBuf returns the spare run buffer for the caller to fill with the
// next row's runs before calling extend (ownership passes to the index).
func (ix *belowIndex) nextTopBuf() []freeRun { return ix.spare[:0] }

// extend appends one processed row: newRuns become the new top row, unioned
// into the existing components by a merge-scan against the previous top
// row, and the projection is refreshed. newRuns must be ascending by start.
func (ix *belowIndex) extend(newRuns []freeRun) {
	prev, prevOff := ix.topRuns, ix.topOff
	ix.topOff = len(ix.parent)
	for _, r := range newRuns {
		ix.parent = append(ix.parent, len(ix.parent))
		ix.weight = append(ix.weight, r.length)
	}
	i, j := 0, 0
	for i < len(prev) && j < len(newRuns) {
		a, b := prev[i], newRuns[j]
		if a.start < b.start+b.length && b.start < a.start+a.length {
			ix.union(prevOff+i, ix.topOff+j)
		}
		if a.start+a.length < b.start+b.length {
			i++
		} else {
			j++
		}
	}
	ix.spare = prev // recycle the old top buffer
	ix.topRuns = newRuns
	ix.project()
}

func (ix *belowIndex) find(x int) int {
	for ix.parent[x] != x {
		ix.parent[x] = ix.parent[ix.parent[x]]
		x = ix.parent[x]
	}
	return x
}

// union merges the components of a and b, folding the absorbed root's
// weight into the surviving one.
func (ix *belowIndex) union(a, b int) {
	ra, rb := ix.find(a), ix.find(b)
	if ra == rb {
		return
	}
	ix.parent[ra] = rb
	ix.weight[rb] += ix.weight[ra]
}

// project refreshes rootOf/shareWeight/rootLink for the current top row.
func (ix *belowIndex) project() {
	n := len(ix.topRuns)
	ix.rootOf = sized(ix.rootOf, n)
	ix.shareWeight = sized(ix.shareWeight, n)
	ix.rootLink = sized(ix.rootLink, n)
	if ids := len(ix.parent); cap(ix.lastStamp) < ids {
		// Fresh zero stamps are all stale; the spare capacity keeps
		// growth amortized as rows are added.
		ix.lastStamp = make([]uint32, ids, 2*ids)
		ix.lastOf = make([]int, ids, 2*ids)
	} else {
		ix.lastStamp = ix.lastStamp[:ids]
		ix.lastOf = ix.lastOf[:ids]
	}
	ix.stamp++
	if ix.stamp == 0 { // wrapped: forget every old stamp
		clear(ix.lastStamp[:cap(ix.lastStamp)])
		ix.stamp = 1
	}
	for k := range ix.topRuns {
		root := ix.find(ix.topOff + k)
		ix.rootOf[k] = root
		if ix.lastStamp[root] == ix.stamp {
			ix.rootLink[k] = ix.lastOf[root]
			ix.shareWeight[k] = 0
		} else {
			ix.lastStamp[root] = ix.stamp
			ix.rootLink[k] = -1
			ix.shareWeight[k] = ix.weight[root]
		}
		// Chain to the most recent same-root topRun.
		ix.lastOf[root] = k
	}
}

// mass sums the weights of components at or above the threshold over every
// row added so far.
func (ix *belowIndex) mass(threshER int) int {
	m := 0
	for i, p := range ix.parent {
		if p == i && ix.weight[i] >= threshER {
			m += ix.weight[i]
		}
	}
	return m
}

// reaches reports whether componentWeight(cur, vIdx) >= threshER. Most
// queries are decided by a lower bound first: v's own length plus the
// weights of the distinct below components that v's overlapping top runs
// belong to, all of which compo(v) contains. Only when that bound stays
// below the threshold does it fall back to the full componentWeight.
func (ix *belowIndex) reaches(cur []freeRun, vIdx, threshER int) bool {
	v := cur[vIdx]
	w := v.length
	if w >= threshER {
		return true
	}
	// k0 is the first top run ending past v's start; top runs are
	// ascending and disjoint, so the overlapping ones follow it.
	k0, hi := 0, len(ix.topRuns)
	for k0 < hi {
		mid := int(uint(k0+hi) >> 1)
		if t := ix.topRuns[mid]; t.start+t.length <= v.start {
			k0 = mid + 1
		} else {
			hi = mid
		}
	}
	for k := k0; k < len(ix.topRuns) && ix.topRuns[k].start < v.start+v.length; k++ {
		// A root shared with an earlier overlapping top run is counted
		// there already: rootLink names the latest earlier run with the
		// same root, and every run in [k0, k) overlaps v.
		if ix.rootLink[k] >= k0 {
			continue
		}
		w += ix.weight[ix.rootOf[k]]
		if w >= threshER {
			return true
		}
	}
	return ix.componentWeight(cur, vIdx) >= threshER
}

// componentWeight returns w(compo(v)) for the current row's run at index
// vIdx, over the graph G_{0,i}: the current row's runs bridged through the
// collapsed below components. Cost is O(runs_i + runs_{i−1}), allocation
// free (the union-find arena is reused across calls).
func (ix *belowIndex) componentWeight(cur []freeRun, vIdx int) int {
	n := len(cur)
	m := len(ix.topRuns)
	total := n + m
	if cap(ix.scratch) < total {
		ix.scratch = make([]int, total)
	}
	parent := ix.scratch[:total]
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	// topRuns sharing a below-root are connected through the rows below.
	for k := 0; k < m; k++ {
		if ix.rootLink[k] >= 0 {
			union(n+k, n+ix.rootLink[k])
		}
	}
	// Merge-scan current-row runs against row i−1 runs.
	i, j := 0, 0
	for i < m && j < n {
		a, b := ix.topRuns[i], cur[j]
		if a.start < b.start+b.length && b.start < a.start+a.length {
			union(n+i, j)
		}
		if a.start+a.length < b.start+b.length {
			i++
		} else {
			j++
		}
	}
	target := find(vIdx)
	w := 0
	for k := 0; k < n; k++ {
		if find(k) == target {
			w += cur[k].length
		}
	}
	for k := 0; k < m; k++ {
		if ix.shareWeight[k] > 0 && find(n+k) == target {
			w += ix.shareWeight[k]
		}
	}
	return w
}

// sized returns s resized to n entries, reusing capacity. A buffer that
// must grow at least doubles: the dicing stage relabels after every kept
// move, each of which may add a run, so growing to exactly n would
// replace its buffers on nearly every relabel.
func sized(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n, max(n, 2*cap(s)))
	}
	return s[:n]
}
