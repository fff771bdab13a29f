package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples must lie above a reported tail value.
const tailBeyond = 10

// tail returns the highest percentile of xs that still has at least
// tailBeyond samples strictly above its rank, with that percentile: for n
// samples it is the k-th smallest value, k = n − tailBeyond, stated as
// percentile 100·k/n. ok is false when there are too few samples (n ≤
// tailBeyond) to state any tail.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	k := n - tailBeyond
	if k < 1 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	return s[k-1], 100 * float64(k) / float64(n), true
}

// point2 is one solution in a two-objective minimization space.
type point2 struct{ X, Y float64 }

// hypervolume returns the area dominated by pts and bounded by the
// reference point ref, for two minimized objectives. Points that do not
// strictly dominate ref contribute nothing; dominated points are ignored.
func hypervolume(pts []point2, ref point2) float64 {
	in := make([]point2, 0, len(pts))
	for _, p := range pts {
		if p.X < ref.X && p.Y < ref.Y && !math.IsNaN(p.X) && !math.IsNaN(p.Y) {
			in = append(in, p)
		}
	}
	sort.Slice(in, func(i, j int) bool {
		if in[i].X != in[j].X {
			return in[i].X < in[j].X
		}
		return in[i].Y < in[j].Y
	})
	area, prevY := 0.0, ref.Y
	for _, p := range in {
		if p.Y >= prevY {
			continue // dominated by a point with smaller X
		}
		area += (ref.X - p.X) * (prevY - p.Y)
		prevY = p.Y
	}
	return area
}
