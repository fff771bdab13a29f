// Fuzz target for the GDSII codec, in an external test package so it can
// seed the corpus from a benchmark-style design export (benchdesigns sits
// above gdsii in the import graph).
package gdsii_test

import (
	"bytes"
	"math"
	"testing"

	"gdsiiguard/internal/gdsii"
	"gdsiiguard/internal/geom"
	"gdsiiguard/internal/layout"
)

// designSeed exports a small placed design — the shape of every real
// stream the codec sees in the flow.
func designSeed(f *testing.F) []byte {
	f.Helper()
	nl := gdsii.ToyNetlist(f)
	nl.Instance("u3").SecurityCritical = true
	l, err := layout.New(nl, 4, 40)
	if err != nil {
		f.Fatal(err)
	}
	for i, name := range []string{"u1", "u2", "u3"} {
		if err := l.Place(nl.Instance(name), i, 5*i); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	wires := []gdsii.Wire{
		{Metal: 1, Width: 70, Pts: []geom.Point{geom.Pt(0, 700), geom.Pt(1000, 700)}},
	}
	if err := gdsii.StreamLayout(&buf, l, gdsii.SliceWires(wires)); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// longXYSeed exercises the multi-record XY split path.
func longXYSeed(f *testing.F) []byte {
	f.Helper()
	lib := gdsii.NewLibrary("long")
	s := lib.AddStruct("S")
	pts := make([]geom.Point, 9000)
	for i := range pts {
		pts[i] = geom.Pt(int64(i), int64(i%977))
	}
	s.Elements = append(s.Elements, gdsii.Path{Layer: 11, Width: 70, XY: pts})
	var buf bytes.Buffer
	if err := gdsii.Write(&buf, lib); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// saneUnit reports whether the real8 value survives an encode round trip
// byte-exactly: the excess-64 base-16 exponent only covers ~[1e-77, 1e76],
// and extreme decoded values re-encode lossily. Valid GDSII units are
// around 1e-3/1e-9; the guard is generous.
func saneUnit(f float64) bool {
	if f == 0 {
		return true
	}
	a := math.Abs(f)
	return a >= 1e-30 && a <= 1e30
}

// FuzzGDSIIRead feeds arbitrary bytes to the reader. Inputs the reader
// accepts must re-emit and re-read cleanly, and the emitted stream must be
// a write fixpoint: Write(Read(Write(Read(data)))) == Write(Read(data)).
func FuzzGDSIIRead(f *testing.F) {
	f.Add(designSeed(f))
	f.Add(longXYSeed(f))
	var empty bytes.Buffer
	if err := gdsii.Write(&empty, gdsii.NewLibrary("empty")); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte{0x00, 0x06, 0x00, 0x02, 0x02, 0x58}) // lone HEADER
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		lib, err := gdsii.Read(bytes.NewReader(data))
		if err != nil {
			return // malformed input rejected: fine
		}
		var w1 bytes.Buffer
		if err := gdsii.Write(&w1, lib); err != nil {
			t.Fatalf("Write after successful Read: %v", err)
		}
		lib2, err := gdsii.Read(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("re-Read of own output: %v", err)
		}
		if !saneUnit(lib.UserUnit) || !saneUnit(lib.MeterUnit) {
			return // extreme units re-encode lossily; fixpoint not expected
		}
		var w2 bytes.Buffer
		if err := gdsii.Write(&w2, lib2); err != nil {
			t.Fatalf("second Write: %v", err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("write fixpoint violated: first %d bytes, second %d bytes", w1.Len(), w2.Len())
		}
		// Streaming stats must agree with the in-memory view.
		st, name, err := gdsii.StreamStats(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("StreamStats on own output: %v", err)
		}
		ls := lib.Stats()
		if name != lib.Name || st.Structs != ls.Structs || st.Boundaries != ls.Boundaries ||
			st.Paths != ls.Paths || st.SRefs != ls.SRefs || st.Texts != ls.Texts {
			t.Fatalf("StreamStats %+v (name %q) != Library.Stats %+v (name %q)", st, name, ls, lib.Name)
		}
	})
}
