package netlist

// Clone returns a deep copy of the netlist: new Instance/Net/Port objects
// with identical names, masters, connectivity, and flags. Master cells are
// shared (the library is read-only).
//
// Terminals and pin connections rebind by position: an instance's or
// net's ID is its index (AddInstance, AddNet and RemoveFillers keep it so),
// and a port records its index in Ports. Ports, instances, nets, sinks and
// pin connections are each allocated in one slab, so a clone costs a fixed
// number of allocations whatever the design size; every net's Sinks and
// every instance's Conns is a full slice expression over its slab (cap =
// len), so a later append on the clone reallocates instead of overwriting
// a neighbour. The clone's name index is not copied: it is built on the
// clone's first lookup, if one ever comes.
func (nl *Netlist) Clone() *Netlist {
	out := &Netlist{
		Name:  nl.Name,
		Lib:   nl.Lib,
		Insts: make([]*Instance, len(nl.Insts)),
		Nets:  make([]*Net, len(nl.Nets)),
		Ports: make([]*Port, len(nl.Ports)),
	}
	ports := make([]Port, len(nl.Ports))
	for i, p := range nl.Ports {
		ports[i] = Port{Name: p.Name, Dir: p.Dir, pos: i}
		out.Ports[i] = &ports[i]
	}
	nets := make([]Net, len(nl.Nets))
	numSinks := 0
	for i, n := range nl.Nets {
		nn := &nets[i]
		nn.ID, nn.Name, nn.IsClock = n.ID, n.Name, n.IsClock
		out.Nets[i] = nn
		numSinks += len(n.Sinks)
	}
	insts := make([]Instance, len(nl.Insts))
	numConns := 0
	for i, in := range nl.Insts {
		ni := &insts[i]
		ni.ID, ni.Name, ni.Master = in.ID, in.Name, in.Master
		ni.SecurityCritical, ni.Fixed = in.SecurityCritical, in.Fixed
		out.Insts[i] = ni
		numConns += len(in.Conns)
	}
	// Rebuild terminals with the cloned objects.
	sinks := make([]Terminal, numSinks)
	for i, n := range nl.Nets {
		nn := out.Nets[i]
		nn.hasDriver = n.hasDriver
		if n.hasDriver {
			nn.Driver = out.cloneTerm(n.Driver)
		}
		nn.Sinks, sinks = sinks[:len(n.Sinks):len(n.Sinks)], sinks[len(n.Sinks):]
		for j, s := range n.Sinks {
			nn.Sinks[j] = out.cloneTerm(s)
		}
	}
	conns := make([]PinConn, numConns)
	for i, in := range nl.Insts {
		ni := out.Insts[i]
		ni.Conns, conns = conns[:len(in.Conns):len(in.Conns)], conns[len(in.Conns):]
		for j, c := range in.Conns {
			ni.Conns[j] = PinConn{Pin: c.Pin, Net: out.Nets[c.Net.ID]}
		}
	}
	return out
}

func (nl *Netlist) cloneTerm(t Terminal) Terminal {
	if t.IsPort() {
		return Terminal{Port: nl.Ports[t.Port.pos], Pin: t.Pin}
	}
	return Terminal{Inst: nl.Insts[t.Inst.ID], Pin: t.Pin}
}
