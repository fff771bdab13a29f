package layout

import (
	"testing"

	"gdsiiguard/internal/opencell45"
)

// FuzzReadDEF feeds arbitrary text to the DEF reader. Any input either
// fails with an error or yields a layout that survives WriteDEF → ReadDEF
// with the same core, origin, instance placements, fixed flags and port
// positions. The reader must never panic or hang.
func FuzzReadDEF(f *testing.F) {
	f.Add(WriteDEFString(placedToy(f)))
	f.Add(WriteDEFString(offsetToy(f)))
	f.Add(unplacedDEF)
	for _, c := range readDEFErrorCases {
		f.Add(c.src)
	}
	lib := opencell45.MustLoad()
	f.Fuzz(func(t *testing.T, src string) {
		l, err := ReadDEFString(src, lib)
		if err != nil {
			return
		}
		text := WriteDEFString(l)
		l2, err := ReadDEFString(text, lib)
		if err != nil {
			t.Fatalf("accepted DEF does not re-read after WriteDEF: %v\n%s", err, text)
		}
		if l2.NumRows != l.NumRows || l2.SitesPerRow != l.SitesPerRow || l2.Origin != l.Origin {
			t.Fatalf("core %dx%d at %v re-reads as %dx%d at %v",
				l.NumRows, l.SitesPerRow, l.Origin, l2.NumRows, l2.SitesPerRow, l2.Origin)
		}
		if len(l2.Netlist.Insts) != len(l.Netlist.Insts) {
			t.Fatalf("%d instances re-read as %d", len(l.Netlist.Insts), len(l2.Netlist.Insts))
		}
		for _, in := range l.Netlist.Insts {
			in2 := l2.Netlist.Instance(in.Name)
			if in2 == nil {
				t.Fatalf("instance %q lost", in.Name)
			}
			if p, p2 := l.PlacementOf(in), l2.PlacementOf(in2); p != p2 || in.Fixed != in2.Fixed {
				t.Fatalf("instance %q: %+v fixed=%v re-reads as %+v fixed=%v", in.Name, p, in.Fixed, p2, in2.Fixed)
			}
		}
		if len(l2.PortPos) != len(l.PortPos) {
			t.Fatalf("%d placed ports re-read as %d", len(l.PortPos), len(l2.PortPos))
		}
		for name, pos := range l.PortPos {
			if got, ok := l2.PortPos[name]; !ok || got != pos {
				t.Fatalf("port %q at %v re-reads at %v", name, pos, got)
			}
		}
	})
}
