package netlist

import "testing"

func TestCloneIsDeepAndEquivalent(t *testing.T) {
	nl := buildToy(t)
	nl.Instance("u3").SecurityCritical = true
	nl.Instance("u3").Fixed = true

	c := nl.Clone()
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	if c.Stats() != nl.Stats() {
		t.Errorf("stats differ: %+v vs %+v", c.Stats(), nl.Stats())
	}
	// Flags preserved.
	if !c.Instance("u3").SecurityCritical || !c.Instance("u3").Fixed {
		t.Error("flags lost")
	}
	// Clock flag preserved.
	if !c.Net("clk").IsClock {
		t.Error("clock flag lost")
	}
	// Deep: objects are distinct.
	if c.Instance("u1") == nl.Instance("u1") {
		t.Error("instances aliased")
	}
	if c.Net("n1") == nl.Net("n1") {
		t.Error("nets aliased")
	}
	// Terminals reference cloned objects, not originals.
	if c.Net("n1").Driver.Inst != c.Instance("u1") {
		t.Error("driver terminal references wrong instance")
	}
	for _, s := range c.Net("n1").Sinks {
		if s.Inst != nil && s.Inst == nl.Instance("u2") {
			t.Error("sink references original instance")
		}
	}
	// Mutating the clone does not affect the original.
	c.Instance("u1").SecurityCritical = true
	if nl.Instance("u1").SecurityCritical {
		t.Error("mutation leaked to original")
	}
	// Port terminal clone.
	if d := c.Net("in0").Driver; !d.IsPort() || d.Port != c.Port("in0") {
		t.Error("port terminal not re-pointed")
	}
	// Conns rebind to the clone's nets.
	for _, in := range c.Insts {
		for _, pc := range in.Conns {
			if pc.Net != c.Nets[pc.Net.ID] {
				t.Errorf("%s/%s bound to a net outside the clone", in.Name, pc.Pin)
			}
		}
	}

	// Writes to the clone never reach the original — nor, through the
	// clone's shared sink slab, a neighbouring net of the clone.
	c.Instance("u1").Fixed = true
	u4, err := c.AddInstance("u4", "INV_X1")
	if err != nil {
		t.Fatal(err)
	}
	n4, err := c.AddNet("n4")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(u4, "A", c.Net("n1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(u4, "ZN", n4); err != nil {
		t.Fatal(err)
	}
	if nl.Instance("u1").Fixed {
		t.Error("Fixed flag leaked to original")
	}
	if nl.Instance("u4") != nil || len(nl.Insts) != 3 || nl.Net("n4") != nil || len(nl.Nets) != 6 {
		t.Error("AddInstance/AddNet leaked to original")
	}
	if s := nl.Net("n1").Sinks; len(s) != 1 || s[0].Inst != nl.Instance("u2") {
		t.Errorf("original n1 sinks = %v", s)
	}
	if s := c.Net("n2").Sinks; len(s) != 1 || s[0].Inst != c.Instance("u3") || s[0].Pin != "D" {
		t.Errorf("clone n2 sinks = %v after appending to n1", s)
	}
	if err := nl.Validate(); err != nil {
		t.Errorf("original invalid after clone writes: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("clone invalid after writes: %v", err)
	}
}

func TestCloneConnectionsMatch(t *testing.T) {
	nl := buildToy(t)
	c := nl.Clone()
	for _, in := range nl.Insts {
		ci := c.Instance(in.Name)
		if len(ci.Conns) != len(in.Conns) {
			t.Fatalf("%s conns = %d vs %d", in.Name, len(ci.Conns), len(in.Conns))
		}
		for i, conn := range in.Conns {
			if ci.Conns[i].Pin != conn.Pin || ci.Conns[i].Net.Name != conn.Net.Name {
				t.Errorf("%s conn %d mismatch", in.Name, i)
			}
		}
	}
}
