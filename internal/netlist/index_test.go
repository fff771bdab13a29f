package netlist

import (
	"fmt"
	"sync"
	"testing"

	"gdsiiguard/internal/opencell45"
)

// buildChain constructs in -> INV g0 -> ... -> INV g{n-1} -> out plus two
// filler cells: the instance and net counts grow with n, the port count
// does not.
func buildChain(t testing.TB, n int) *Netlist {
	t.Helper()
	nl := New(fmt.Sprintf("chain%d", n), opencell45.MustLoad())
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	in, err := nl.AddPort("in", In)
	must(err)
	out, err := nl.AddPort("out", Out)
	must(err)
	prev, err := nl.AddNet("in")
	must(err)
	must(nl.ConnectPort(in, prev))
	for i := 0; i < n; i++ {
		g, err := nl.AddInstance(fmt.Sprintf("g%d", i), "INV_X1")
		must(err)
		next, err := nl.AddNet(fmt.Sprintf("n%d", i))
		must(err)
		must(nl.Connect(g, "A", prev))
		must(nl.Connect(g, "ZN", next))
		prev = next
	}
	must(nl.ConnectPort(out, prev))
	for i := 0; i < 2; i++ {
		_, err := nl.AddInstance(fmt.Sprintf("fill%d", i), "FILLCELL_X2")
		must(err)
	}
	return nl
}

// sameLookups checks that every name of src resolves in c to c's own
// object at the same position, and that unknown names resolve to nil.
func sameLookups(t *testing.T, label string, c, src *Netlist) {
	t.Helper()
	for i, in := range src.Insts {
		if got := c.Instance(in.Name); got != c.Insts[i] || got == in {
			t.Fatalf("%s: Instance(%q) = %p, want the clone's %p", label, in.Name, got, c.Insts[i])
		}
	}
	for i, n := range src.Nets {
		if got := c.Net(n.Name); got != c.Nets[i] || got == n {
			t.Fatalf("%s: Net(%q) = %p, want the clone's %p", label, n.Name, got, c.Nets[i])
		}
	}
	for i, p := range src.Ports {
		if got := c.Port(p.Name); got != c.Ports[i] || got == p {
			t.Fatalf("%s: Port(%q) = %p, want the clone's %p", label, p.Name, got, c.Ports[i])
		}
	}
	if c.Instance("ghost") != nil || c.Net("ghost") != nil || c.Port("ghost") != nil {
		t.Errorf("%s: unknown name resolved", label)
	}
}

func TestCloneLookupsReturnOwnObjects(t *testing.T) {
	src := buildToy(t)
	c := src.Clone()
	sameLookups(t, "clone", c, src)
	sameLookups(t, "clone of clone", c.Clone(), c)

	// Port terminals rebind to the clone's ports by position.
	for i, n := range c.Nets {
		if d := n.Driver; d.IsPort() && d.Port != c.Port(src.Nets[i].Driver.Port.Name) {
			t.Errorf("net %s driver port not rebound", n.Name)
		}
	}

	// MarkCritical answers as on the source and marks the clone's objects.
	names := []string{"u3", "ghost", "u1"}
	wantN, wantErr := src.Clone().MarkCritical(names)
	gotN, gotErr := c.MarkCritical(names)
	if gotN != wantN || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Errorf("MarkCritical on clone = %d, %v; want %d, %v", gotN, gotErr, wantN, wantErr)
	}
	if !c.Insts[0].SecurityCritical || !c.Insts[2].SecurityCritical || c.Insts[1].SecurityCritical {
		t.Error("MarkCritical marked the wrong clone instances")
	}
	if len(src.CriticalInsts()) != 0 {
		t.Error("MarkCritical on a clone marked the source")
	}
}

// TestCloneMutationsIsolated checks that names added to or removed from a
// clone never show in its source or a sibling clone, and the reverse —
// including on a clone whose index is first built by the mutation itself.
func TestCloneMutationsIsolated(t *testing.T) {
	src := buildChain(t, 4)
	a, b := src.Clone(), src.Clone()

	// a mutates before any lookup: its index must still know every name.
	if _, err := a.AddInstance("g0", "INV_X1"); err == nil {
		t.Error("clone accepted a duplicate instance name")
	}
	if _, err := a.AddInstance("a_only", "INV_X1"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AddNet("a_net"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AddPort("a_port", Out); err != nil {
		t.Fatal(err)
	}
	if got := a.RemoveFillers(); got != 2 {
		t.Fatalf("clone RemoveFillers = %d, want 2", got)
	}
	// The source mutates after cloning.
	if _, err := src.AddInstance("src_only", "INV_X1"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.AddNet("src_net"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.AddPort("src_port", In); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name     string
		nl       *Netlist
		has, not []string
		fillers  bool
	}{
		{"a", a, []string{"a"}, []string{"src"}, false},
		{"b", b, nil, []string{"a", "src"}, true},
		{"src", src, []string{"src"}, []string{"a"}, true},
	} {
		for _, who := range c.has {
			if c.nl.Instance(who+"_only") == nil || c.nl.Net(who+"_net") == nil || c.nl.Port(who+"_port") == nil {
				t.Errorf("%s: lost its own %s_* names", c.name, who)
			}
		}
		for _, who := range c.not {
			if c.nl.Instance(who+"_only") != nil || c.nl.Net(who+"_net") != nil || c.nl.Port(who+"_port") != nil {
				t.Errorf("%s: sees %s's names", c.name, who)
			}
		}
		if got := c.nl.Instance("fill1") != nil; got != c.fillers {
			t.Errorf("%s: fill1 findable = %v, want %v", c.name, got, c.fillers)
		}
		for i, in := range c.nl.Insts {
			if c.nl.Instance(in.Name) != in || in.ID != i {
				t.Errorf("%s: %s resolves wrong or has ID %d at %d", c.name, in.Name, in.ID, i)
			}
		}
	}
	// A clone taken after the mutations carries them.
	sameLookups(t, "clone of mutated clone", a.Clone(), a)
}

// TestSiblingClonesConcurrentLookups looks names up from several
// goroutines on each of several sibling clones at once, the first lookup
// of each clone building its index; run under -race.
func TestSiblingClonesConcurrentLookups(t *testing.T) {
	src := buildChain(t, 64)
	var clones []*Netlist
	for i := 0; i < 3; i++ {
		clones = append(clones, src.Clone())
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for ci, c := range clones {
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(ci int, c *Netlist) {
				defer wg.Done()
				for i, in := range src.Insts {
					if c.Instance(in.Name) != c.Insts[i] {
						errs <- fmt.Sprintf("clone %d: Instance(%q) wrong", ci, in.Name)
						return
					}
				}
				for i, n := range src.Nets {
					if c.Net(n.Name) != c.Nets[i] || src.Net(n.Name) != n {
						errs <- fmt.Sprintf("clone %d: Net(%q) wrong", ci, n.Name)
						return
					}
				}
				if c.Port("out") != c.Ports[1] {
					errs <- fmt.Sprintf("clone %d: Port(out) wrong", ci)
				}
			}(ci, c)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestCloneAllocsIndependentOfSize pins Clone to a fixed number of
// allocations: a design with 256 times the instances and nets costs
// the same count.
func TestCloneAllocsIndependentOfSize(t *testing.T) {
	small, large := buildChain(t, 16), buildChain(t, 4096)
	a := testing.AllocsPerRun(20, func() { small.Clone() })
	b := testing.AllocsPerRun(20, func() { large.Clone() })
	if a != b {
		t.Errorf("Clone allocations: %v at %d instances, %v at %d", a, len(small.Insts), b, len(large.Insts))
	}
}
