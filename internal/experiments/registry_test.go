package experiments

import (
	"strings"
	"testing"
)

// TestIDsPaperOrder pins the catalog order: figures ascending, tab1
// between fig15 and fig18, the ablation companion last.
func TestIDsPaperOrder(t *testing.T) {
	ids := IDs()
	if len(ids) == 0 {
		t.Fatal("no experiment ids")
	}
	if ids[0] != "fig1" {
		t.Errorf("first id = %q, want fig1", ids[0])
	}
	if last := ids[len(ids)-1]; last != "ablation" {
		t.Errorf("last id = %q, want ablation", last)
	}
	idx := make(map[string]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	if !(idx["fig15"] < idx["tab1"] && idx["tab1"] < idx["fig18"]) {
		t.Errorf("tab1 not between fig15 and fig18: %v", ids)
	}
	if !(idx["tab1"] < idx["fig16x17"] && idx["fig16x17"] < idx["fig18"]) {
		t.Errorf("fig16x17 not in the Figs 16/17 gap: %v", ids)
	}
	if !(idx["fig28"] < idx["satur-uniform"] && idx["satur-uniform"] < idx["satur-transpose"] &&
		idx["satur-transpose"] < idx["satur-hotspot"] && idx["satur-hotspot"] < idx["ablation"]) {
		t.Errorf("saturation sweeps not between fig28 and ablation: %v", ids)
	}
	if idx["fig4"] > idx["fig14"] || idx["fig14"] > idx["fig23"] {
		t.Errorf("figures out of ascending order: %v", ids)
	}
}

// TestIDsMatchSpecsAndRegistry keeps the views of the catalog — IDs,
// Specs and SpecByID, the registry lookup every scheduler uses — in
// lockstep.
func TestIDsMatchSpecsAndRegistry(t *testing.T) {
	ids := IDs()
	specs := Specs()
	if len(ids) != len(specs) {
		t.Fatalf("catalog sizes differ: %d ids, %d specs", len(ids), len(specs))
	}
	seen := make(map[string]bool, len(ids))
	for i, id := range ids {
		if specs[i].ID != id {
			t.Errorf("Specs()[%d].ID = %q, want %q", i, specs[i].ID, id)
		}
		if seen[id] {
			t.Errorf("duplicate id %q", id)
		}
		seen[id] = true
		spec, ok := SpecByID(id)
		if !ok || spec.ID != id {
			t.Errorf("SpecByID(%q) = %q, %v", id, spec.ID, ok)
		}
	}
}

func TestSpecByIDUnknown(t *testing.T) {
	if _, ok := SpecByID("fig99"); ok {
		t.Error("SpecByID accepted an unknown id")
	}
}

// TestRunErrorMessage pins the error shape callers print: it must name the
// offending id and point at the catalog.
func TestRunErrorMessage(t *testing.T) {
	_, err := Run("not-an-experiment", true)
	if err == nil {
		t.Fatal("unknown id did not error")
	}
	for _, want := range []string{`"not-an-experiment"`, "IDs"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestSweepSpecsExposeUnits asserts the sweep experiments really decompose
// (the tentpole's parallelizable units) and that single-unit experiments
// still assemble whole tables.
func TestSweepSpecsExposeUnits(t *testing.T) {
	multi := map[string]int{"fig4": 6, "fig14": 3, "fig15": 15, "fig23": 3}
	for id, want := range multi {
		spec, ok := SpecByID(id)
		if !ok {
			t.Fatalf("missing spec %q", id)
		}
		if units := spec.Units(true); len(units) != want {
			t.Errorf("%s: %d quick units, want %d", id, len(units), want)
		}
	}
	spec, _ := SpecByID("fig13")
	units := spec.Units(true)
	if len(units) != 1 {
		t.Fatalf("fig13: want single unit, got %d", len(units))
	}
	part := units[0].Run(nil)
	if part.Table == nil || part.Table.ID != "fig13" {
		t.Fatalf("single-unit part did not carry the whole table: %+v", part)
	}
	if tab := spec.Assemble(true, []Part{part}); tab != part.Table {
		t.Error("assemble of a single-unit experiment must return its table")
	}
}

// TestCSVShape checks CSV output against the table structure on a real
// artifact: one header line plus one line per row, all with the same
// column count, and no note leakage.
func TestCSVShape(t *testing.T) {
	tab := Fig13LatencyMatrix(nil)
	csv := tab.CSV()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(lines) != 1+len(tab.Rows) {
		t.Fatalf("CSV has %d lines, want header + %d rows", len(lines), len(tab.Rows))
	}
	for i, line := range lines {
		if got, want := len(strings.Split(line, ",")), len(tab.Header); got != want {
			t.Errorf("line %d: %d columns, want %d: %q", i, got, want, line)
		}
	}
	if strings.Contains(csv, "note:") {
		t.Error("CSV leaked notes")
	}
}

// TestCSVEscaping covers the quoting rules cell-by-cell: commas, quotes
// and newlines force quoting; everything else passes through bare.
func TestCSVEscaping(t *testing.T) {
	tab := &Table{Header: []string{"plain", "comma", "quote", "newline"}}
	tab.AddRow("v", "a,b", `say "hi"`, "two\nlines")
	got := tab.CSV()
	want := "plain,comma,quote,newline\n" +
		"v,\"a,b\",\"say \"\"hi\"\"\",\"two\nlines\"\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}
