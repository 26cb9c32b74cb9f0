package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeomeanBasics(t *testing.T) {
	if g := Geomean(nil); g != 1 {
		t.Fatalf("empty geomean = %f", g)
	}
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean(2,8) = %f", g)
	}
	if g := Geomean([]float64{1, 0, 2}); g != 0 {
		t.Fatalf("non-positive input should yield 0, got %f", g)
	}
}

// Property: the geomean lies between min and max.
func TestGeomeanBounded(t *testing.T) {
	f := func(raw []uint16) bool {
		var xs []float64
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			x := 0.5 + float64(v)/1000
			xs = append(xs, x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if len(xs) == 0 {
			return true
		}
		g := Geomean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 42)
	out := tb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "alpha") ||
		!strings.Contains(out, "1.500") || !strings.Contains(out, "42") {
		t.Fatalf("table rendering broken:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

// TestFormatPrintsNotesAfterTable pins the report layout: a table, a
// blank line, its notes; a table without columns prints only its notes.
func TestFormatPrintsNotesAfterTable(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.Notes = []string{"first note", "second note"}
	got := Format([]*Table{tb, {Notes: []string{"bare note"}}})
	want := tb.String() + "\nfirst note\nsecond note\nbare note\n"
	if got != want {
		t.Fatalf("Format =\n%q\nwant\n%q", got, want)
	}
	if v, ok := tb.Rows[0][1].(float64); !ok || v != 1.5 {
		t.Fatalf("AddRow stored %#v, want the float64 as given", tb.Rows[0][1])
	}
}
