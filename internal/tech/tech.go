// Package tech models the process technology and standard-cell library that
// a physical layout is implemented in: the placement site, the routing layer
// stack, the standard cells with their timing and power parameters, and
// non-default routing rules (NDRs).
//
// The model mirrors the subset of LEF/Liberty data that an ECO anti-Trojan
// flow needs. It is deliberately unit-consistent:
//
//   - distance:    database units (DBU); DBUPerMicron sets the scale
//   - time:        picoseconds (ps)
//   - capacitance: femtofarads (fF)
//   - resistance:  kiloohms (kΩ), so kΩ × fF = ps
//   - power:       leakage in nW, internal energy in fJ per toggle
//
// The embedded 45nm library lives in package opencell45, which parses real
// LEF/Liberty text through packages lef and liberty into this model.
package tech

import (
	"fmt"
	"sort"
)

// CellClass categorizes a standard cell for the purposes of placement,
// security analysis, and fill.
type CellClass int

const (
	// Comb is an ordinary combinational gate.
	Comb CellClass = iota
	// Seq is a sequential element (flip-flop or latch).
	Seq
	// Filler is a non-functional filler cell: it occupies sites but has no
	// logic. Filler-occupied sites count as exploitable (Definition 2.2).
	Filler
	// Tap is a well-tap or end-cap cell; non-functional but required.
	Tap
)

// String implements fmt.Stringer.
func (c CellClass) String() string {
	switch c {
	case Comb:
		return "comb"
	case Seq:
		return "seq"
	case Filler:
		return "filler"
	case Tap:
		return "tap"
	default:
		return fmt.Sprintf("CellClass(%d)", int(c))
	}
}

// PinDir is the signal direction of a cell pin.
type PinDir int

const (
	// Input pin.
	Input PinDir = iota
	// Output pin.
	Output
	// Inout pin (rare; treated as both for connectivity).
	Inout
)

// String implements fmt.Stringer.
func (d PinDir) String() string {
	switch d {
	case Input:
		return "input"
	case Output:
		return "output"
	case Inout:
		return "inout"
	default:
		return fmt.Sprintf("PinDir(%d)", int(d))
	}
}

// Pin describes one pin of a standard cell.
type Pin struct {
	Name string
	Dir  PinDir
	// Cap is the input capacitance in fF (0 for outputs).
	Cap float64
	// MaxCap is the largest load an output pin may drive, in fF
	// (0 for inputs).
	MaxCap float64
	// IsClock marks the clock pin of sequential cells.
	IsClock bool
}

// TimingArc is a delay arc from an input pin to an output pin, using a
// linear delay model: delay(ps) = Intrinsic + DriveRes × Cload(fF).
type TimingArc struct {
	From, To string
	// Intrinsic is the zero-load delay in ps.
	Intrinsic float64
	// DriveRes is the effective drive resistance in kΩ.
	DriveRes float64
}

// Cell describes one standard-cell master.
type Cell struct {
	Name  string
	Class CellClass
	// WidthSites is the cell width in placement sites; all cells are one
	// row high.
	WidthSites int
	Pins       []Pin
	Arcs       []TimingArc
	// Leakage is the static leakage power in nW.
	Leakage float64
	// InternalEnergy is the internal switching energy per output toggle
	// in fJ.
	InternalEnergy float64
	// ClkToQ is the clock-to-output delay in ps (sequential cells only).
	ClkToQ float64
	// Setup is the setup time in ps (sequential cells only).
	Setup float64

	pinIndex map[string]int
}

// Pin returns the named pin, or nil if the cell has no such pin.
func (c *Cell) Pin(name string) *Pin {
	i := c.PinIndex(name)
	if i < 0 {
		return nil
	}
	return &c.Pins[i]
}

// PinIndex returns the index in Pins of the pin Pin returns, or -1 if the
// cell has no such pin.
func (c *Cell) PinIndex(name string) int {
	if c.pinIndex == nil {
		c.buildPinIndex()
	}
	i, ok := c.pinIndex[name]
	if !ok {
		return -1
	}
	return i
}

func (c *Cell) buildPinIndex() {
	c.pinIndex = make(map[string]int, len(c.Pins))
	for i := range c.Pins {
		c.pinIndex[c.Pins[i].Name] = i
	}
}

// OutputPin returns the first output pin of the cell, or nil for cells with
// no outputs (fillers, taps).
func (c *Cell) OutputPin() *Pin {
	for i := range c.Pins {
		if c.Pins[i].Dir == Output {
			return &c.Pins[i]
		}
	}
	return nil
}

// InputPins returns all input pins of the cell, excluding the clock pin.
func (c *Cell) InputPins() []Pin {
	var out []Pin
	for _, p := range c.Pins {
		if p.Dir == Input && !p.IsClock {
			out = append(out, p)
		}
	}
	return out
}

// ClockPin returns the clock pin of a sequential cell, or nil.
func (c *Cell) ClockPin() *Pin {
	for i := range c.Pins {
		if c.Pins[i].IsClock {
			return &c.Pins[i]
		}
	}
	return nil
}

// Arc returns the timing arc from input pin `from` to output pin `to`,
// or nil if no such arc exists.
func (c *Cell) Arc(from, to string) *TimingArc {
	for i := range c.Arcs {
		if c.Arcs[i].From == from && c.Arcs[i].To == to {
			return &c.Arcs[i]
		}
	}
	return nil
}

// IsFunctional reports whether the cell carries logic (combinational or
// sequential, as opposed to filler/tap).
func (c *Cell) IsFunctional() bool {
	return c.Class == Comb || c.Class == Seq
}

// LayerDir is the preferred routing direction of a metal layer.
type LayerDir int

const (
	// Horizontal preferred routing direction.
	Horizontal LayerDir = iota
	// Vertical preferred routing direction.
	Vertical
)

// String implements fmt.Stringer.
func (d LayerDir) String() string {
	if d == Horizontal {
		return "HORIZONTAL"
	}
	return "VERTICAL"
}

// Layer describes one routing metal layer.
type Layer struct {
	Name  string
	Index int // 1-based metal index
	Dir   LayerDir
	// Pitch is the routing track pitch in DBU.
	Pitch int64
	// Width is the default wire width in DBU.
	Width int64
	// Spacing is the minimum same-layer spacing in DBU.
	Spacing int64
	// RPerUM is wire resistance in kΩ per µm at default width.
	RPerUM float64
	// CPerUM is wire capacitance in fF per µm at default width.
	CPerUM float64
}

// Site describes the placement site of the core rows.
type Site struct {
	Name   string
	Width  int64 // DBU
	Height int64 // DBU
}

// NDR is a non-default routing rule: per-layer wire width scale factors,
// as manipulated by the Routing Width Scaling operator. A scale of 1.0 on
// every layer is the default rule.
type NDR struct {
	// Scale[i] is the width multiplier for metal layer index i+1.
	Scale []float64
}

// DefaultNDR returns an NDR with scale 1.0 on all k layers.
func DefaultNDR(k int) NDR {
	s := make([]float64, k)
	for i := range s {
		s[i] = 1.0
	}
	return NDR{Scale: s}
}

// LayerScale returns the width scale for 1-based metal index i (1.0 when out
// of range).
func (n NDR) LayerScale(i int) float64 {
	if i < 1 || i > len(n.Scale) {
		return 1.0
	}
	return n.Scale[i-1]
}

// Clone returns a deep copy of the NDR.
func (n NDR) Clone() NDR {
	s := make([]float64, len(n.Scale))
	copy(s, n.Scale)
	return NDR{Scale: s}
}

// Library is a complete technology + standard-cell library.
type Library struct {
	Name string
	// DBUPerMicron sets the database-unit scale (LEF DATABASE MICRONS).
	DBUPerMicron int64
	Site         Site
	Layers       []Layer // ordered by metal index
	// Vdd is the supply voltage in volts (for switching power).
	Vdd float64

	cells map[string]*Cell
	names []string // sorted cell names, for deterministic iteration
}

// NewLibrary returns an empty library with the given name.
func NewLibrary(name string) *Library {
	return &Library{
		Name:  name,
		cells: make(map[string]*Cell),
	}
}

// AddCell registers a cell master. Re-adding a name replaces the previous
// definition (Liberty data merges onto LEF skeletons this way).
func (l *Library) AddCell(c *Cell) {
	if _, exists := l.cells[c.Name]; !exists {
		l.names = append(l.names, c.Name)
		sort.Strings(l.names)
	}
	l.cells[c.Name] = c
}

// Cell returns the named cell master, or nil.
func (l *Library) Cell(name string) *Cell {
	return l.cells[name]
}

// Cells returns all cell masters in deterministic (name) order.
func (l *Library) Cells() []*Cell {
	out := make([]*Cell, 0, len(l.names))
	for _, n := range l.names {
		out = append(out, l.cells[n])
	}
	return out
}

// NumCells returns the number of registered cell masters.
func (l *Library) NumCells() int { return len(l.cells) }

// NumLayers returns K, the number of routing metal layers.
func (l *Library) NumLayers() int { return len(l.Layers) }

// Layer returns the layer with 1-based metal index i, or nil.
func (l *Library) Layer(i int) *Layer {
	if i < 1 || i > len(l.Layers) {
		return nil
	}
	return &l.Layers[i-1]
}

// EstimateLayer returns the layer whose RC an unrouted net's wire takes:
// timing and power estimate such a wire as its HPWL on the mid-stack metal
// NumLayers()/2.
func (l *Library) EstimateLayer() *Layer { return l.Layer(l.NumLayers() / 2) }

// LayerByName returns the named layer, or nil.
func (l *Library) LayerByName(name string) *Layer {
	for i := range l.Layers {
		if l.Layers[i].Name == name {
			return &l.Layers[i]
		}
	}
	return nil
}

// MicronsToDBU converts microns to database units.
func (l *Library) MicronsToDBU(um float64) int64 {
	return int64(um*float64(l.DBUPerMicron) + 0.5)
}

// DBUToMicrons converts database units to microns.
func (l *Library) DBUToMicrons(dbu int64) float64 {
	return float64(dbu) / float64(l.DBUPerMicron)
}

// FillersByWidth returns the filler cells sorted by decreasing width in
// sites; used by fill-based defenses (BISA, Ba et al.).
func (l *Library) FillersByWidth() []*Cell {
	var out []*Cell
	for _, c := range l.Cells() {
		if c.Class == Filler {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].WidthSites > out[j].WidthSites })
	return out
}

// Validate checks internal consistency of the library: positive geometry,
// monotonically indexed layers, cells with sane widths and arcs referencing
// existing pins. It returns the first problem found.
func (l *Library) Validate() error {
	if l.DBUPerMicron <= 0 {
		return fmt.Errorf("tech: library %q: DBUPerMicron must be positive", l.Name)
	}
	if l.Site.Width <= 0 || l.Site.Height <= 0 {
		return fmt.Errorf("tech: library %q: site %q has non-positive geometry", l.Name, l.Site.Name)
	}
	for i := range l.Layers {
		ly := &l.Layers[i]
		if ly.Index != i+1 {
			return fmt.Errorf("tech: layer %q has index %d, want %d", ly.Name, ly.Index, i+1)
		}
		if ly.Pitch <= 0 || ly.Width <= 0 {
			return fmt.Errorf("tech: layer %q has non-positive pitch/width", ly.Name)
		}
		if ly.Width > ly.Pitch {
			return fmt.Errorf("tech: layer %q wider than its pitch", ly.Name)
		}
	}
	for _, c := range l.Cells() {
		if c.WidthSites <= 0 {
			return fmt.Errorf("tech: cell %q has non-positive width", c.Name)
		}
		for _, a := range c.Arcs {
			if c.Pin(a.From) == nil || c.Pin(a.To) == nil {
				return fmt.Errorf("tech: cell %q arc %s->%s references missing pin", c.Name, a.From, a.To)
			}
		}
		if c.Class == Seq && c.ClockPin() == nil {
			return fmt.Errorf("tech: sequential cell %q has no clock pin", c.Name)
		}
	}
	return nil
}
