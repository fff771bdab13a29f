package layout

import (
	"strings"
	"testing"

	"gdsiiguard/internal/opencell45"
)

func placedToy(t testing.TB) *Layout {
	t.Helper()
	l := toyLayout(t)
	_ = l.Place(l.Netlist.Instance("u1"), 0, 4)
	_ = l.Place(l.Netlist.Instance("u2"), 1, 10)
	_ = l.Place(l.Netlist.Instance("u3"), 3, 20)
	l.Netlist.Instance("u3").Fixed = true
	l.SpreadPorts()
	return l
}

func TestDEFRoundTrip(t *testing.T) {
	l := placedToy(t)
	text := WriteDEFString(l)
	lib := opencell45.MustLoad()
	l2, err := ReadDEFString(text, lib)
	if err != nil {
		t.Fatalf("ReadDEF: %v\n%s", err, text)
	}
	if err := l2.Validate(); err != nil {
		t.Fatalf("round-tripped layout invalid: %v", err)
	}
	if err := l2.Netlist.Validate(); err != nil {
		t.Fatalf("round-tripped netlist invalid: %v", err)
	}
	if l2.NumRows != l.NumRows || l2.SitesPerRow != l.SitesPerRow {
		t.Errorf("core = %dx%d, want %dx%d", l2.NumRows, l2.SitesPerRow, l.NumRows, l.SitesPerRow)
	}
	for _, in := range l.Netlist.Insts {
		in2 := l2.Netlist.Instance(in.Name)
		if in2 == nil {
			t.Fatalf("instance %s lost", in.Name)
		}
		p, p2 := l.PlacementOf(in), l2.PlacementOf(in2)
		if p != p2 {
			t.Errorf("%s placement %+v vs %+v", in.Name, p2, p)
		}
		if in2.Fixed != in.Fixed {
			t.Errorf("%s fixed flag lost", in.Name)
		}
	}
	for name, pos := range l.PortPos {
		if l2.PortPos[name] != pos {
			t.Errorf("port %s at %v, want %v", name, l2.PortPos[name], pos)
		}
	}
	if !l2.Netlist.Net("clk").IsClock {
		t.Error("clock flag lost through DEF")
	}
	// Connectivity preserved.
	n1 := l2.Netlist.Net("n1")
	if n1 == nil || n1.Driver.Inst == nil || n1.Driver.Inst.Name != "u1" {
		t.Errorf("n1 driver = %v", n1.Driver)
	}
}

func TestDEFContainsSections(t *testing.T) {
	l := placedToy(t)
	text := WriteDEFString(l)
	for _, want := range []string{"DIEAREA", "ROW row_0", "PINS 4 ;", "COMPONENTS 3 ;", "NETS 6 ;", "END DESIGN"} {
		if !strings.Contains(text, want) {
			t.Errorf("DEF missing %q", want)
		}
	}
	if !strings.Contains(text, "+ FIXED (") {
		t.Error("fixed component not marked FIXED")
	}
}

// readDEFErrorCases are inputs ReadDEF must reject.
var readDEFErrorCases = []struct{ name, src string }{
	{"empty", ""},
	{"no rows", "DESIGN d ;\nCOMPONENTS 0 ;\nEND COMPONENTS\nEND DESIGN\n"},
	{"bad component master", `
DESIGN d ;
ROW row_0 s 0 0 N DO 10 BY 1 STEP 190 0 ;
COMPONENTS 1 ;
- u1 NO_SUCH_CELL + UNPLACED ;
END COMPONENTS
END DESIGN
`},
	{"net with unknown component", `
DESIGN d ;
ROW row_0 s 0 0 N DO 10 BY 1 STEP 190 0 ;
NETS 1 ;
- n1 ( ghost A ) ;
END NETS
END DESIGN
`},
	{"overlapping placement", `
DESIGN d ;
ROW row_0 s 0 0 N DO 10 BY 1 STEP 190 0 ;
COMPONENTS 2 ;
- u1 INV_X1 + PLACED ( 0 0 ) N ;
- u2 INV_X1 + PLACED ( 190 0 ) N ;
END COMPONENTS
END DESIGN
`},
	{"unterminated pin", "DESIGN d ;\nROW row_0 s 0 0 N DO 10 BY 1 STEP 190 0 ;\nPINS 1 ;\n- a + DIRECTION INPUT"},
	{"unterminated component", "DESIGN d ;\nROW row_0 s 0 0 N DO 10 BY 1 STEP 190 0 ;\nCOMPONENTS 1 ;\n- u1 INV_X1 + PLACED ( 0 0 ) N"},
	{"unterminated net", "DESIGN d ;\nROW row_0 s 0 0 N DO 10 BY 1 STEP 190 0 ;\nNETS 1 ;\n- n1 + USE CLOCK"},
	{"row too wide", "DESIGN d ;\nROW row_0 s 0 0 N DO 9223372036854775807 BY 1 STEP 190 0 ;\nCOMPONENTS 0 ;\nEND COMPONENTS\n"},
	// DEF from other tools that ReadDEF would otherwise misplace.
	// At 2,000 DBU/µm ( 380 0 ) is site 1; read at the library's 1,000 it
	// would be site 2.
	{"units not library DBU", `
DESIGN d ;
UNITS DISTANCE MICRONS 2000 ;
ROW row_0 s 0 0 N DO 10 BY 1 STEP 380 0 ;
COMPONENTS 1 ;
- u1 INV_X1 + PLACED ( 380 0 ) N ;
END COMPONENTS
END DESIGN
`},
	{"row shifted in x", `
DESIGN d ;
ROW row_0 s 0 0 N DO 10 BY 1 STEP 190 0 ;
ROW row_1 s 190 1400 N DO 10 BY 1 STEP 190 0 ;
COMPONENTS 0 ;
END COMPONENTS
END DESIGN
`},
	{"rows two site heights apart", `
DESIGN d ;
ROW row_0 s 0 0 N DO 10 BY 1 STEP 190 0 ;
ROW row_1 s 0 2800 N DO 10 BY 1 STEP 190 0 ;
COMPONENTS 0 ;
END COMPONENTS
END DESIGN
`},
	{"rows of different widths", `
DESIGN d ;
ROW row_0 s 0 0 N DO 10 BY 1 STEP 190 0 ;
ROW row_1 s 0 1400 N DO 12 BY 1 STEP 190 0 ;
COMPONENTS 0 ;
END COMPONENTS
END DESIGN
`},
	// Truncating division would read both components below as site 0.
	{"component off the site grid", `
DESIGN d ;
ROW row_0 s 0 0 N DO 10 BY 1 STEP 190 0 ;
COMPONENTS 1 ;
- u1 INV_X1 + PLACED ( 100 0 ) N ;
END COMPONENTS
END DESIGN
`},
	{"component below the origin", `
DESIGN d ;
ROW row_0 s 0 0 N DO 10 BY 1 STEP 190 0 ;
COMPONENTS 1 ;
- u1 INV_X1 + PLACED ( -150 0 ) N ;
END COMPONENTS
END DESIGN
`},
	{"core too large", "DESIGN d ;\nROW row_0 s 0 0 N DO 67108864 BY 1 STEP 190 0 ;\nROW row_1 s 0 1400 N DO 67108864 BY 1 STEP 190 0 ;\nCOMPONENTS 0 ;\nEND COMPONENTS\n"},
}

func TestReadDEFErrors(t *testing.T) {
	lib := opencell45.MustLoad()
	for _, c := range readDEFErrorCases {
		if _, err := ReadDEFString(c.src, lib); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

// unplacedDEF holds one component without a placement.
const unplacedDEF = `
VERSION 5.8 ;
DESIGN d ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 1900 1400 ) ;
ROW row_0 s 0 0 N DO 10 BY 1 STEP 190 0 ;
COMPONENTS 1 ;
- u1 INV_X1 + UNPLACED ;
END COMPONENTS
END DESIGN
`

func TestReadDEFUnplacedComponents(t *testing.T) {
	lib := opencell45.MustLoad()
	l, err := ReadDEFString(unplacedDEF, lib)
	if err != nil {
		t.Fatalf("ReadDEF: %v", err)
	}
	if l.PlacementOf(l.Netlist.Instance("u1")).Placed {
		t.Error("unplaced component placed")
	}
}

// offsetToy is the toy layout with its core origin away from (0, 0).
func offsetToy(t testing.TB) *Layout {
	t.Helper()
	l := toyLayout(t)
	l.Origin.X, l.Origin.Y = 950, 2800
	nl := l.Netlist
	_ = l.Place(nl.Instance("u1"), 2, 7)
	_ = l.Place(nl.Instance("u2"), 0, 0)
	_ = l.Place(nl.Instance("u3"), 1, 1)
	l.SpreadPorts()
	return l
}

func TestDEFWithOffsetOrigin(t *testing.T) {
	l := offsetToy(t)
	l2, err := ReadDEFString(WriteDEFString(l), opencell45.MustLoad())
	if err != nil {
		t.Fatal(err)
	}
	if l2.Origin != l.Origin {
		t.Errorf("origin = %v, want %v", l2.Origin, l.Origin)
	}
	p := l2.PlacementOf(l2.Netlist.Instance("u1"))
	if p.Row != 2 || p.Site != 7 {
		t.Errorf("u1 at (%d,%d), want (2,7)", p.Row, p.Site)
	}
}
