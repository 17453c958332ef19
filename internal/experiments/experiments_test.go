package experiments

import (
	"bytes"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The paper-shape tests check the paper's claims against the quick tables
// TestRegistryAllQuick pins byte for byte, read back from those fixtures,
// so each table is simulated once per test run. They run before
// TestRegistryAllQuick: after rewriting the fixtures with -update, run the
// package again.

// fixturePath is the committed quick table of experiment id.
func fixturePath(id string) string {
	return filepath.Join("..", "runner", "testdata", id+".quick.csv")
}

// quickTable reads experiment id's pinned quick table. It fails unless
// Table.CSV renders the parsed table back to the file byte for byte, so a
// parse slip cannot hide a cell from a shape test.
func quickTable(t *testing.T, id string) *Table {
	t.Helper()
	fixture := fixturePath(id)
	data, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil || len(records) == 0 {
		t.Fatalf("%s: %d records, %v", fixture, len(records), err)
	}
	tab := &Table{ID: id, Header: records[0], Rows: records[1:]}
	if got := tab.CSV(); got != string(data) {
		t.Fatalf("%s does not round-trip through Table.CSV:\ngot:\n%s\nwant:\n%s", fixture, got, data)
	}
	return tab
}

// column returns the index of tab's column headed name.
func column(t *testing.T, tab *Table, name string) int {
	t.Helper()
	i := slices.Index(tab.Header, name)
	if i < 0 {
		t.Fatalf("%s: no column %q in %q", tab.ID, name, tab.Header)
	}
	return i
}

// findRow locates the first row whose leading cells are keys.
func findRow(t *testing.T, tab *Table, keys ...string) []string {
	t.Helper()
	for _, r := range tab.Rows {
		if len(r) >= len(keys) && slices.Equal(r[:len(keys)], keys) {
			return r
		}
	}
	t.Fatalf("%s: no row %q", tab.ID, keys)
	return nil
}

// cell parses the numeric cell in column name of the row keys locates.
func cell(t *testing.T, tab *Table, name string, keys ...string) float64 {
	t.Helper()
	return parse(t, findRow(t, tab, keys...)[column(t, tab, name)])
}

func parse(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric", s)
	}
	return v
}

func TestFig04Shape(t *testing.T) {
	tab := quickTable(t, "fig4")
	const gsCol, esCol, oldCol = "GS1280/1.15GHz", "ES45/1.25GHz", "GS320/1.22GHz"
	// 16KB: all machines in L1 (a few ns).
	for _, c := range []string{gsCol, esCol, oldCol} {
		if v := cell(t, tab, c, "16k"); v > 5 {
			t.Errorf("16KB latency %s = %v, want L1", c, v)
		}
	}
	// 256KB: GS1280 on-chip L2 (~10ns) beats off-chip caches (~45-55ns).
	if gs, es := cell(t, tab, gsCol, "256k"), cell(t, tab, esCol, "256k"); gs >= es {
		t.Errorf("256KB: GS1280 %v not faster than ES45 %v", gs, es)
	}
	// 4MB: the paper's crossover — GS1280 goes to memory, the 16MB caches
	// still hit, so GS1280 is SLOWER here.
	if gs, es := cell(t, tab, gsCol, "4m"), cell(t, tab, esCol, "4m"); gs <= es {
		t.Errorf("4MB: GS1280 %v should lose to ES45 %v (16MB cache)", gs, es)
	}
	// 32MB: everyone in memory; GS1280 ~3.8x faster than GS320.
	gs, old := cell(t, tab, gsCol, "32m"), cell(t, tab, oldCol, "32m")
	if r := old / gs; r < 3.0 || r > 5.0 {
		t.Errorf("32MB GS320/GS1280 = %.1f, paper 3.8", r)
	}
}

func TestFig05OpenVsClosedPage(t *testing.T) {
	tab := quickTable(t, "fig5")
	open := cell(t, tab, "s=64", "4m")
	closed := cell(t, tab, "s=16k", "4m")
	if open < 80 || open > 95 {
		t.Errorf("64B-stride memory latency = %v, want ~83-90 (open page)", open)
	}
	if closed < 120 || closed > 140 {
		t.Errorf("16KB-stride latency = %v, want ~130 (closed page)", closed)
	}
}

func TestFig06LinearVsSaturating(t *testing.T) {
	tab := quickTable(t, "fig6")
	gs4, gs16 := cell(t, tab, "GS1280", "4"), cell(t, tab, "GS1280", "16")
	if r := gs16 / gs4; r < 3.4 {
		t.Errorf("GS1280 triad 16/4 CPUs = %.2f, want ~4 (linear)", r)
	}
	old4, old16 := cell(t, tab, "GS320", "4"), cell(t, tab, "GS320", "16")
	if r := old16 / old4; r > 4.2 {
		t.Errorf("GS320 triad 16/4 = %.2f, should saturate per QBB", r)
	}
	if gs16 < 5*old16 {
		t.Errorf("GS1280 16P %.1f not >> GS320 16P %.1f", gs16, old16)
	}
}

func TestFig12Ratios(t *testing.T) {
	tab := quickTable(t, "fig12")
	gs, old := cell(t, tab, "GS1280", "average"), cell(t, tab, "GS320", "average")
	if r := old / gs; r < 3.0 || r > 5.0 {
		t.Errorf("16P average latency ratio = %.2f, paper 4x", r)
	}
	// Local row ~83ns.
	if v := cell(t, tab, "GS1280", "0 -> 0"); v < 80 || v > 90 {
		t.Errorf("GS1280 local = %v, want ~83", v)
	}
}

func TestFig13MatrixMatchesPaper(t *testing.T) {
	paper := [4][4]float64{
		{83, 145, 186, 154},
		{139, 175, 221, 182},
		{181, 221, 259, 222},
		{154, 191, 235, 195},
	}
	tab := quickTable(t, "fig13")
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			got := cell(t, tab, fmt.Sprintf("x=%d", x), fmt.Sprintf("y=%d", y))
			want := paper[y][x]
			if got < want*0.95 || got > want*1.05 {
				t.Errorf("matrix[%d][%d] = %v, paper %v (>5%% off)", y, x, got, want)
			}
		}
	}
}

func TestFig14LatencyGrowsSlowly(t *testing.T) {
	tab := quickTable(t, "fig14")
	gs4 := cell(t, tab, "GS1280", "4")
	gs64 := cell(t, tab, "GS1280", "64")
	if gs64 < gs4 {
		t.Error("average latency should grow with machine size")
	}
	if gs64 > 320 {
		t.Errorf("GS1280 64P average = %v, paper keeps it under ~300ns", gs64)
	}
	old16 := cell(t, tab, "GS320", "16")
	gs16 := cell(t, tab, "GS1280", "16")
	if old16 < 2.5*gs16 {
		t.Errorf("GS320 16P %v not >> GS1280 %v", old16, gs16)
	}
}

// TestFig15GS1280OutclassesGS320 compares the 16P curves' peaks over every
// load the quick sweep runs.
func TestFig15GS1280OutclassesGS320(t *testing.T) {
	tab := quickTable(t, "fig15")
	cfg, bwCol, latCol := column(t, tab, "config"), column(t, tab, "bandwidth MB/s"), column(t, tab, "latency ns")
	var gsBest, oldBest, gsLat, oldLat float64
	for _, r := range tab.Rows {
		bw, lat := parse(t, r[bwCol]), parse(t, r[latCol])
		switch r[cfg] {
		case "GS1280/16P":
			if bw > gsBest {
				gsBest, gsLat = bw, lat
			}
		case "GS320/16P":
			if bw > oldBest {
				oldBest, oldLat = bw, lat
			}
		}
	}
	if gsBest < 8*oldBest {
		t.Errorf("16P peak bandwidth GS1280 %.0f vs GS320 %.0f: want >8x", gsBest, oldBest)
	}
	if oldLat < 2*gsLat {
		t.Errorf("GS320 latency %.0f should blow up vs GS1280 %.0f", oldLat, gsLat)
	}
}

func TestTab1FirstRowExact(t *testing.T) {
	tab := quickTable(t, "tab1")
	r := findRow(t, tab, "4x2")
	for _, c := range []struct{ col, want string }{
		{"avg gain", "1.200"}, {"worst gain", "1.500"}, {"bisection gain", "2.000"},
	} {
		if got := r[column(t, tab, c.col)]; got != c.want {
			t.Errorf("4x2 %s = %s, want %s", c.col, got, c.want)
		}
	}
}

func TestFig18ShuffleImproves(t *testing.T) {
	tab := quickTable(t, "fig18")
	tbw, tlat := cell(t, tab, "bandwidth MB/s", "torus", "8"), cell(t, tab, "latency ns", "torus", "8")
	sbw, slat := cell(t, tab, "bandwidth MB/s", "shuffle-1hop", "8"), cell(t, tab, "latency ns", "shuffle-1hop", "8")
	// At equal offered load the shuffle must deliver at least as much
	// bandwidth at no more latency (paper: 5-25% gain).
	if sbw < tbw*0.98 {
		t.Errorf("shuffle bandwidth %.0f below torus %.0f", sbw, tbw)
	}
	if slat > tlat*1.02 {
		t.Errorf("shuffle latency %.0f above torus %.0f", slat, tlat)
	}
	if sbw < tbw*1.02 && slat > tlat*0.98 {
		t.Errorf("shuffle shows no improvement (bw %.0f vs %.0f, lat %.0f vs %.0f)",
			sbw, tbw, slat, tlat)
	}
}

func TestFig19FluentComparable(t *testing.T) {
	tab := quickTable(t, "fig19")
	gs, sc, old := cell(t, tab, "GS1280 rating", "4"), cell(t, tab, "SC45 rating", "4"), cell(t, tab, "GS320 rating", "4")
	if gs < sc*0.8 || gs > sc*2.5 {
		t.Errorf("Fluent 4P: GS1280 %.0f vs SC45 %.0f, paper says comparable", gs, sc)
	}
	if gs < old {
		t.Errorf("Fluent: GS1280 %.0f below GS320 %.0f", gs, old)
	}
}

func TestFig21SPDominatedByGS1280(t *testing.T) {
	tab := quickTable(t, "fig21")
	gs, old := cell(t, tab, "GS1280 MOPS", "16"), cell(t, tab, "GS320 MOPS", "16")
	if r := gs / old; r < 2.0 || r > 7.0 {
		t.Errorf("SP 16P GS1280/GS320 = %.1f, paper 2.2-2.6 (we land 3-5)", r)
	}
}

func TestFig23GUPSBendAndRatio(t *testing.T) {
	tab := quickTable(t, "fig23")
	gs16, gs32 := cell(t, tab, "GS1280", "16"), cell(t, tab, "GS1280", "32")
	// The bend: 16P and 32P share a bisection, so scaling flattens.
	if r := gs32 / gs16; r > 1.5 {
		t.Errorf("GUPS 32/16 = %.2f, paper shows a bend (flat cross-section)", r)
	}
	old32 := cell(t, tab, "GS320", "32")
	if r := gs32 / old32; r < 6 {
		t.Errorf("GUPS 32P GS1280/GS320 = %.1f, paper >10x", r)
	}
}

func TestFig25SwimWorstMesaBest(t *testing.T) {
	tab := quickTable(t, "fig25")
	swim := cell(t, tab, "degradation %", "swim")
	mesa := cell(t, tab, "degradation %", "mesa")
	if swim < 10 || swim > 40 {
		t.Errorf("swim striping degradation = %.0f%%, paper ~30%%", swim)
	}
	if mesa > 5 {
		t.Errorf("mesa striping degradation = %.0f%%, should be negligible", mesa)
	}
	if swim <= mesa {
		t.Error("memory-bound benchmarks must degrade more than cache-resident ones")
	}
}

func TestFig26StripingDoublesHotSpot(t *testing.T) {
	tab := quickTable(t, "fig26")
	plain := cell(t, tab, "bandwidth MB/s", "non-striped", "16")
	striped := cell(t, tab, "bandwidth MB/s", "striped", "16")
	if r := striped / plain; r < 1.4 || r > 2.3 {
		t.Errorf("hot-spot striping gain = %.2f, paper up to 1.8x", r)
	}
}

func TestFig27HotSpotIsCPU0(t *testing.T) {
	tab := quickTable(t, "fig27")
	zbox := column(t, tab, "Zbox %")
	cpu0 := cell(t, tab, "Zbox %", "CPU0")
	for _, r := range tab.Rows {
		if v := parse(t, r[zbox]); r[0] != "CPU0" && v >= cpu0 {
			t.Errorf("%s Zbox %.0f%% >= CPU0 %.0f%%: hot spot not at CPU0", r[0], v, cpu0)
		}
	}
	if cpu0 < 40 {
		t.Errorf("CPU0 utilization = %.0f%%, want the paper's ~53%% ballpark", cpu0)
	}
}

func TestFig28KeyRatios(t *testing.T) {
	tab := quickTable(t, "fig28")
	get := func(key string) float64 { return cell(t, tab, "ratio", key) }
	if v := get("CPU speed"); v > 1.0 {
		t.Errorf("CPU speed ratio %v: GS1280 clock is lower", v)
	}
	if v := get("Inter-Processor bandwidth (32P)"); v < 8 {
		t.Errorf("IP bandwidth ratio = %.1f, paper >10x", v)
	}
	if v := get("memory latency (local)"); v < 3 || v > 5 {
		t.Errorf("local latency ratio = %.1f, paper ~4x", v)
	}
	if v := get("GUPS (32P)"); v < 8 {
		t.Errorf("GUPS ratio = %.1f, paper ~10x", v)
	}
	if v := get("SPECint_rate2000 (16P)"); v < 0.8 || v > 1.6 {
		t.Errorf("int rate ratio = %.2f, paper ~1.0-1.3", v)
	}
	if v := get("SAP SD Transaction Processing (32P)"); v < 1.2 || v > 1.7 {
		t.Errorf("SAP ratio = %.2f, paper 1.3-1.6", v)
	}
}

var update = flag.Bool("update", false,
	"rewrite internal/runner/testdata/<id>.quick.csv from the current tables")

// quickSuiteReuses is how many measurements of the quick suite, rendered
// serially through one memo, repeat one an earlier unit already simulated:
// satur-uniform's six points, each replayed by degraded-satur (f=0) and by
// flaky-satur (ber=0); five of fig7's triads, which fig6 runs (and fig6's
// own ES45 4P at n=16); fig28's GUPS 32P and NAS-SP 16P rows, which are
// fig23[32P] and fig21's 16P row; fig19's and fig21's SC45 4-CPU rate at
// n=16, computed at n=4; fig5's 1 MB and 4 MB chases at a 64 B stride,
// which are fig4's GS1280 rows; ablation's nak-retry k=30, which is
// fig15[GS1280/16P,k=30]; and fig14[16P]'s GS1280 latency walk, which is
// fig13's matrix.
const quickSuiteReuses = 12 + 5 + 4 + 2 + 2 + 1 + 1

// TestRegistryAllQuick renders every experiment's quick table and diffs
// its CSV against the committed fixture, so each of them is pinned byte
// for byte: a change that moves any simulated number shows up here as a
// diff. After an intentional model change, rewrite the fixtures with
//
//	go test ./internal/experiments -run TestRegistryAllQuick -update
//
// and explain the change in the commit. The suite renders in paper order
// through one Env and one memo, as a serial gsbench run does, so every
// table built from memo hits is pinned too; when every experiment ran,
// the memo must have served exactly quickSuiteReuses results. Every
// experiment must also release each engine it took from the Env (see
// TestMeasurementReleasesEngines).
func TestRegistryAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep is slow")
	}
	env := NewEnv(NewMemo())
	ran := 0
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			ran++
			spec, _ := SpecByID(id)
			tab := spec.run(env, true)
			if env.next != 0 {
				t.Errorf("%s left the engine cursor at %d: a measurement ran outside a scope", id, env.next)
			}
			for i, e := range env.engines {
				if e.Executed() != 0 || e.Pending() != 0 {
					t.Errorf("%s left engine %d with %d executed and %d pending events: not released",
						id, i, e.Executed(), e.Pending())
				}
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", id)
			}
			if tab.ID != id {
				t.Fatalf("table id %q != %q", tab.ID, id)
			}
			if !strings.Contains(tab.String(), tab.Title) {
				t.Fatal("rendering lost the title")
			}
			fixture := fixturePath(id)
			if *update {
				if err := os.WriteFile(fixture, []byte(tab.CSV()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(fixture)
			if err != nil {
				t.Fatalf("missing fixture (run with -update): %v", err)
			}
			if got := tab.CSV(); got != string(want) {
				t.Errorf("CSV differs from %s\ngot:\n%s\nwant:\n%s", fixture, got, want)
			}
		})
	}
	if ran == len(IDs()) && env.Reused() != quickSuiteReuses {
		t.Errorf("the quick suite reused %d memoized results, want %d", env.Reused(), quickSuiteReuses)
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("fig99", true); err == nil {
		t.Fatal("unknown id did not error")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("hello %d", 5)
	out := tab.String()
	for _, want := range []string{"== x: T ==", "a", "bb", "note: hello 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestAblationShapes checks deterministic routing against the adaptive
// baseline at every load the quick sweep runs.
func TestAblationShapes(t *testing.T) {
	tab := quickTable(t, "ablation")
	variant, load, lat := column(t, tab, "variant"), column(t, tab, "outstanding"), column(t, tab, "latency ns")
	loads := 0
	for _, base := range tab.Rows {
		if base[variant] != "baseline" {
			continue
		}
		loads++
		det := findRow(t, tab, "det-routing", base[load])
		// Deterministic routing must not beat adaptive on latency under load.
		if parse(t, det[lat]) < parse(t, base[lat])*0.98 {
			t.Errorf("at %s outstanding, deterministic routing latency %s beats adaptive %s",
				base[load], det[lat], base[lat])
		}
	}
	if loads == 0 {
		t.Fatal("no baseline rows")
	}
	// Closing every page costs the precharge penalty on sequential loads.
	open := cell(t, tab, "latency ns", "open-page (chase)")
	closed := cell(t, tab, "latency ns", "closed-page (chase)")
	if closed < open+30 {
		t.Errorf("closed-page chase %v not ~47ns above open-page %v", closed, open)
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Header: []string{"a", "b,c"}}
	tab.AddRow("1", `say "hi"`)
	got := tab.CSV()
	want := "a,\"b,c\"\n1,\"say \"\"hi\"\"\"\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}
