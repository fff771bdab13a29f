// Package netlist models a gate-level netlist: standard-cell instances,
// nets connecting their pins, and the design's top-level ports. It is the
// logical view underneath a physical layout; the layout package adds
// placement, and the routing/timing engines consume both.
package netlist

import (
	"fmt"
	"sort"
	"sync"

	"gdsiiguard/internal/tech"
)

// Netlist is a flat gate-level design.
//
// Name lookups (Instance, Net, Port) are safe for concurrent use with each
// other. Everything that changes the netlist — AddInstance, AddNet,
// AddPort, Connect, ConnectPort, RemoveFillers, MarkCritical — needs
// exclusive access. A clone shares no mutable state with its source, so
// the source and each of its clones may be used from different goroutines.
type Netlist struct {
	Name string
	Lib  *tech.Library

	Insts []*Instance
	Nets  []*Net
	Ports []*Port

	// names is the name index, built on the first lookup or mutation
	// (see index): a clone starts without one, and most clones — tile
	// ECOs, delta evaluations — never look a name up.
	namesOnce sync.Once
	names     nameIndex
}

// nameIndex maps names to the netlist's own objects.
type nameIndex struct {
	inst map[string]*Instance
	net  map[string]*Net
	port map[string]*Port
}

// index returns the name index, building it from Insts, Nets and Ports on
// first use. Mutators keep a built index current.
func (nl *Netlist) index() *nameIndex {
	nl.namesOnce.Do(func() {
		ix := nameIndex{
			inst: make(map[string]*Instance, len(nl.Insts)),
			net:  make(map[string]*Net, len(nl.Nets)),
			port: make(map[string]*Port, len(nl.Ports)),
		}
		for _, in := range nl.Insts {
			ix.inst[in.Name] = in
		}
		for _, n := range nl.Nets {
			ix.net[n.Name] = n
		}
		for _, p := range nl.Ports {
			ix.port[p.Name] = p
		}
		nl.names = ix
	})
	return &nl.names
}

// Instance is one placed-or-placeable standard-cell instance.
type Instance struct {
	ID     int
	Name   string
	Master *tech.Cell
	// Conns lists pin connections in the order they were made
	// (deterministic iteration).
	Conns []PinConn
	// SecurityCritical marks the instance as a protected asset
	// (Definition 2.1: key-memory registers or key-control logic).
	SecurityCritical bool
	// Fixed prevents any placement change during ECO operations; the
	// GDSII-Guard preprocessing step fixes all security-critical cells.
	Fixed bool
}

// PinConn binds one pin of an instance to a net.
type PinConn struct {
	Pin string
	Net *Net
}

// NetConn returns the net connected to the named pin, or nil.
func (in *Instance) NetConn(pin string) *Net {
	for _, c := range in.Conns {
		if c.Pin == pin {
			return c.Net
		}
	}
	return nil
}

// Terminal identifies one endpoint of a net: either an instance pin or a
// top-level port (Inst == nil).
type Terminal struct {
	Inst *Instance
	Port *Port
	Pin  string
}

// IsPort reports whether the terminal is a top-level port.
func (t Terminal) IsPort() bool { return t.Inst == nil }

// String implements fmt.Stringer.
func (t Terminal) String() string {
	if t.IsPort() {
		return "port:" + t.Port.Name
	}
	return t.Inst.Name + "/" + t.Pin
}

// Net is one electrical net with a single driver and zero or more sinks.
type Net struct {
	ID     int
	Name   string
	Driver Terminal
	Sinks  []Terminal
	// IsClock marks clock-distribution nets; they are excluded from signal
	// timing arcs and eligible for clock-specific NDRs.
	IsClock bool

	hasDriver bool
}

// NumTerms returns the number of terminals (driver + sinks).
func (n *Net) NumTerms() int {
	t := len(n.Sinks)
	if n.hasDriver {
		t++
	}
	return t
}

// HasDriver reports whether a driver has been connected.
func (n *Net) HasDriver() bool { return n.hasDriver }

// PortDir is the direction of a top-level port.
type PortDir int

const (
	// In is a primary input.
	In PortDir = iota
	// Out is a primary output.
	Out
)

// Port is a top-level design port.
type Port struct {
	Name string
	Dir  PortDir

	pos int // index in Netlist.Ports (AddPort and Clone keep it so)
}

// New returns an empty netlist over the given library.
func New(name string, lib *tech.Library) *Netlist {
	return &Netlist{Name: name, Lib: lib}
}

// AddInstance creates an instance of the named master cell.
func (nl *Netlist) AddInstance(name, master string) (*Instance, error) {
	ix := nl.index()
	if _, dup := ix.inst[name]; dup {
		return nil, fmt.Errorf("netlist: duplicate instance %q", name)
	}
	m := nl.Lib.Cell(master)
	if m == nil {
		return nil, fmt.Errorf("netlist: instance %q: unknown master %q", name, master)
	}
	in := &Instance{ID: len(nl.Insts), Name: name, Master: m}
	nl.Insts = append(nl.Insts, in)
	ix.inst[name] = in
	return in, nil
}

// AddNet creates a named net.
func (nl *Netlist) AddNet(name string) (*Net, error) {
	ix := nl.index()
	if _, dup := ix.net[name]; dup {
		return nil, fmt.Errorf("netlist: duplicate net %q", name)
	}
	n := &Net{ID: len(nl.Nets), Name: name}
	nl.Nets = append(nl.Nets, n)
	ix.net[name] = n
	return n, nil
}

// AddPort creates a top-level port.
func (nl *Netlist) AddPort(name string, dir PortDir) (*Port, error) {
	ix := nl.index()
	if _, dup := ix.port[name]; dup {
		return nil, fmt.Errorf("netlist: duplicate port %q", name)
	}
	p := &Port{Name: name, Dir: dir, pos: len(nl.Ports)}
	nl.Ports = append(nl.Ports, p)
	ix.port[name] = p
	return p, nil
}

// Instance returns the named instance, or nil.
func (nl *Netlist) Instance(name string) *Instance { return nl.index().inst[name] }

// Net returns the named net, or nil.
func (nl *Netlist) Net(name string) *Net { return nl.index().net[name] }

// Port returns the named port, or nil.
func (nl *Netlist) Port(name string) *Port { return nl.index().port[name] }

// Connect binds pin `pin` of instance `in` to net `n`. Output pins become
// the net's driver; inputs become sinks. Connecting two drivers to a net or
// connecting a missing pin is an error.
func (nl *Netlist) Connect(in *Instance, pin string, n *Net) error {
	p := in.Master.Pin(pin)
	if p == nil {
		return fmt.Errorf("netlist: %s has no pin %q (master %s)", in.Name, pin, in.Master.Name)
	}
	if in.NetConn(pin) != nil {
		return fmt.Errorf("netlist: %s/%s already connected", in.Name, pin)
	}
	term := Terminal{Inst: in, Pin: pin}
	switch p.Dir {
	case tech.Output:
		if n.hasDriver {
			return fmt.Errorf("netlist: net %q already driven by %s, cannot add %s", n.Name, n.Driver, term)
		}
		n.Driver = term
		n.hasDriver = true
	default:
		n.Sinks = append(n.Sinks, term)
	}
	in.Conns = append(in.Conns, PinConn{Pin: pin, Net: n})
	return nil
}

// ConnectPort binds a top-level port to a net: input ports drive, output
// ports sink.
func (nl *Netlist) ConnectPort(p *Port, n *Net) error {
	term := Terminal{Port: p, Pin: p.Name}
	if p.Dir == In {
		if n.hasDriver {
			return fmt.Errorf("netlist: net %q already driven, cannot add port %s", n.Name, p.Name)
		}
		n.Driver = term
		n.hasDriver = true
		return nil
	}
	n.Sinks = append(n.Sinks, term)
	return nil
}

// FunctionalInsts returns the instances whose masters carry logic.
func (nl *Netlist) FunctionalInsts() []*Instance {
	var out []*Instance
	for _, in := range nl.Insts {
		if in.Master.IsFunctional() {
			out = append(out, in)
		}
	}
	return out
}

// CriticalInsts returns the security-critical instances.
func (nl *Netlist) CriticalInsts() []*Instance {
	var out []*Instance
	for _, in := range nl.Insts {
		if in.SecurityCritical {
			out = append(out, in)
		}
	}
	return out
}

// MarkCritical marks the named instances as security-critical assets and
// returns how many were found; unknown names are reported in err.
func (nl *Netlist) MarkCritical(names []string) (int, error) {
	var missing []string
	found := 0
	ix := nl.index()
	for _, name := range names {
		if in := ix.inst[name]; in != nil {
			in.SecurityCritical = true
			found++
		} else {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return found, fmt.Errorf("netlist: %d unknown asset instances (first: %q)", len(missing), missing[0])
	}
	return found, nil
}

// Validate checks structural sanity: every net driven, every functional
// input pin connected, no dangling references.
func (nl *Netlist) Validate() error {
	for _, n := range nl.Nets {
		if !n.hasDriver {
			return fmt.Errorf("netlist: net %q has no driver", n.Name)
		}
	}
	for _, in := range nl.Insts {
		if !in.Master.IsFunctional() {
			continue
		}
		for _, p := range in.Master.Pins {
			if p.Dir != tech.Input {
				continue
			}
			if in.NetConn(p.Name) == nil {
				return fmt.Errorf("netlist: %s/%s unconnected", in.Name, p.Name)
			}
		}
	}
	return nil
}

// TopoOrder returns the functional instances in topological order of the
// combinational signal flow: an instance appears after every instance whose
// output feeds one of its non-clock inputs, with sequential cells acting as
// sources (their D inputs do not create ordering constraints downstream of
// Q). An error is returned if a purely combinational cycle exists.
func (nl *Netlist) TopoOrder() ([]*Instance, error) {
	indeg := make(map[*Instance]int)
	succ := make(map[*Instance][]*Instance)
	for _, in := range nl.FunctionalInsts() {
		if _, ok := indeg[in]; !ok {
			indeg[in] = 0
		}
		if in.Master.Class == tech.Seq {
			continue // sequential outputs break combinational ordering
		}
		// For combinational cells: every driving instance of an input pin
		// must come first, unless the driver is sequential (a timing
		// startpoint) or a port.
		for _, c := range in.Conns {
			p := in.Master.Pin(c.Pin)
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
				return nil, fmt.Errorf("netlist: %s drives itself combinationally", in.Name)
			}
			succ[d.Inst] = append(succ[d.Inst], in)
			indeg[in]++
		}
	}
	// Kahn's algorithm with deterministic (ID-ordered) seeding.
	var queue []*Instance
	for _, in := range nl.Insts {
		if _, ok := indeg[in]; ok && indeg[in] == 0 {
			queue = append(queue, in)
		}
	}
	var order []*Instance
	for len(queue) > 0 {
		in := queue[0]
		queue = queue[1:]
		order = append(order, in)
		for _, s := range succ[in] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(indeg) {
		return nil, fmt.Errorf("netlist: combinational cycle detected (%d of %d ordered)", len(order), len(indeg))
	}
	return order, nil
}

// Stats summarizes a netlist for reports.
type Stats struct {
	Insts, Comb, Seq, Filler, Nets, Ports, Critical int
	TotalWidthSites                                 int64
}

// Stats computes summary statistics.
func (nl *Netlist) Stats() Stats {
	var s Stats
	s.Nets = len(nl.Nets)
	s.Ports = len(nl.Ports)
	for _, in := range nl.Insts {
		s.Insts++
		s.TotalWidthSites += int64(in.Master.WidthSites)
		switch in.Master.Class {
		case tech.Comb:
			s.Comb++
		case tech.Seq:
			s.Seq++
		case tech.Filler:
			s.Filler++
		}
		if in.SecurityCritical {
			s.Critical++
		}
	}
	return s
}

// RemoveFillers deletes all filler/tap instances (they are never connected
// to signal nets). Used when re-running fill-based defenses from scratch.
func (nl *Netlist) RemoveFillers() int {
	ix := nl.index()
	kept := nl.Insts[:0]
	removed := 0
	for _, in := range nl.Insts {
		if in.Master.Class == tech.Filler {
			delete(ix.inst, in.Name)
			removed++
			continue
		}
		kept = append(kept, in)
	}
	nl.Insts = kept
	for i, in := range nl.Insts {
		in.ID = i
	}
	return removed
}
