// Package geom provides the integer geometry primitives shared by every
// layout-facing subsystem: points, rectangles and half-open intervals in
// database units (DBU), plus Manhattan-distance helpers.
//
// All coordinates are int64 database units. The technology package defines
// the DBU scale (1000 DBU = 1 µm for the embedded OpenCell45 library).
package geom

import "fmt"

// Point is a location in database units.
type Point struct {
	X, Y int64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y int64) Point { return Point{x, y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p translated by -q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// ManhattanDist returns the L1 distance between p and q.
func (p Point) ManhattanDist(q Point) int64 {
	return absI64(p.X-q.X) + absI64(p.Y-q.Y)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Rect is an axis-aligned rectangle with inclusive lower-left and exclusive
// upper-right corners: [Lo.X, Hi.X) × [Lo.Y, Hi.Y). A Rect with Hi ≤ Lo on
// either axis is empty.
type Rect struct {
	Lo, Hi Point
}

// R builds a Rect from coordinates, normalizing so Lo ≤ Hi.
func R(x0, y0, x1, y1 int64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Point{x0, y0}, Point{x1, y1}}
}

// W returns the width of r (0 if empty).
func (r Rect) W() int64 {
	if r.Hi.X <= r.Lo.X {
		return 0
	}
	return r.Hi.X - r.Lo.X
}

// H returns the height of r (0 if empty).
func (r Rect) H() int64 {
	if r.Hi.Y <= r.Lo.Y {
		return 0
	}
	return r.Hi.Y - r.Lo.Y
}

// Empty reports whether r has zero area.
func (r Rect) Empty() bool { return r.W() == 0 || r.H() == 0 }

// Area returns the area of r in DBU².
func (r Rect) Area() int64 { return r.W() * r.H() }

// Center returns the center point of r (rounded down).
func (r Rect) Center() Point {
	return Point{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2}
}

// Contains reports whether p lies inside r (half-open semantics).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lo.X && p.X < r.Hi.X && p.Y >= r.Lo.Y && p.Y < r.Hi.Y
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Empty() {
		return true
	}
	return s.Lo.X >= r.Lo.X && s.Hi.X <= r.Hi.X && s.Lo.Y >= r.Lo.Y && s.Hi.Y <= r.Hi.Y
}

// Intersects reports whether r and s share any area.
func (r Rect) Intersects(s Rect) bool {
	return !r.Intersect(s).Empty()
}

// Intersect returns the overlapping region of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		Point{maxI64(r.Lo.X, s.Lo.X), maxI64(r.Lo.Y, s.Lo.Y)},
		Point{minI64(r.Hi.X, s.Hi.X), minI64(r.Hi.Y, s.Hi.Y)},
	}
	if out.Hi.X < out.Lo.X {
		out.Hi.X = out.Lo.X
	}
	if out.Hi.Y < out.Lo.Y {
		out.Hi.Y = out.Lo.Y
	}
	return out
}

// Union returns the bounding box of r and s. An empty rect is the identity.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		Point{minI64(r.Lo.X, s.Lo.X), minI64(r.Lo.Y, s.Lo.Y)},
		Point{maxI64(r.Hi.X, s.Hi.X), maxI64(r.Hi.Y, s.Hi.Y)},
	}
}

// Expand grows r by d on every side (shrinks when d < 0).
func (r Rect) Expand(d int64) Rect {
	out := Rect{Point{r.Lo.X - d, r.Lo.Y - d}, Point{r.Hi.X + d, r.Hi.Y + d}}
	if out.Hi.X < out.Lo.X || out.Hi.Y < out.Lo.Y {
		return Rect{out.Lo, out.Lo}
	}
	return out
}

// DistTo returns the Manhattan distance from p to the closest point of r
// (0 if p is inside r).
func (r Rect) DistTo(p Point) int64 {
	var dx, dy int64
	switch {
	case p.X < r.Lo.X:
		dx = r.Lo.X - p.X
	case p.X >= r.Hi.X:
		dx = p.X - r.Hi.X + 1
	}
	switch {
	case p.Y < r.Lo.Y:
		dy = r.Lo.Y - p.Y
	case p.Y >= r.Hi.Y:
		dy = p.Y - r.Hi.Y + 1
	}
	return dx + dy
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d %d,%d]", r.Lo.X, r.Lo.Y, r.Hi.X, r.Hi.Y)
}

// Interval is a half-open 1-D range [Lo, Hi).
type Interval struct {
	Lo, Hi int64
}

// Iv builds an Interval, normalizing so Lo ≤ Hi.
func Iv(lo, hi int64) Interval {
	if lo > hi {
		lo, hi = hi, lo
	}
	return Interval{lo, hi}
}

// Len returns the length of v (0 if empty).
func (v Interval) Len() int64 {
	if v.Hi <= v.Lo {
		return 0
	}
	return v.Hi - v.Lo
}

// Empty reports whether v has zero length.
func (v Interval) Empty() bool { return v.Hi <= v.Lo }

// Contains reports whether x lies in v.
func (v Interval) Contains(x int64) bool { return x >= v.Lo && x < v.Hi }

// Overlaps reports whether v and w share any length.
func (v Interval) Overlaps(w Interval) bool {
	return v.Lo < w.Hi && w.Lo < v.Hi
}

// Intersect returns the overlap of v and w (possibly empty, anchored at the
// max of the two Lo values).
func (v Interval) Intersect(w Interval) Interval {
	out := Interval{maxI64(v.Lo, w.Lo), minI64(v.Hi, w.Hi)}
	if out.Hi < out.Lo {
		out.Hi = out.Lo
	}
	return out
}

// String implements fmt.Stringer.
func (v Interval) String() string { return fmt.Sprintf("[%d,%d)", v.Lo, v.Hi) }

// HPWL returns the half-perimeter wirelength of the bounding box of pts.
// It returns 0 for fewer than two points.
func HPWL(pts []Point) int64 {
	if len(pts) < 2 {
		return 0
	}
	minX, maxX := pts[0].X, pts[0].X
	minY, maxY := pts[0].Y, pts[0].Y
	for _, p := range pts[1:] {
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	return (maxX - minX) + (maxY - minY)
}

// BBox returns the bounding box of pts (empty Rect for no points).
func BBox(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{pts[0], pts[0].Add(Point{1, 1})}
	for _, p := range pts[1:] {
		if p.X < r.Lo.X {
			r.Lo.X = p.X
		}
		if p.X+1 > r.Hi.X {
			r.Hi.X = p.X + 1
		}
		if p.Y < r.Lo.Y {
			r.Lo.Y = p.Y
		}
		if p.Y+1 > r.Hi.Y {
			r.Hi.Y = p.Y + 1
		}
	}
	return r
}

func absI64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
