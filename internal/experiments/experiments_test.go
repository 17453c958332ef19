package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gs1280/internal/sim"
)

// cell parses a numeric table cell.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d)", tab.ID, row, col)
	}
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}

// findRow locates the first row whose first cell equals key.
func findRow(t *testing.T, tab *Table, key string) []string {
	t.Helper()
	for _, r := range tab.Rows {
		if r[0] == key {
			return r
		}
	}
	t.Fatalf("%s: no row %q", tab.ID, key)
	return nil
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
	tab := Fig04DependentLoad([]int64{16 << 10, 256 << 10, 4 << 20, 32 << 20})
	// 16KB: all machines in L1 (a few ns).
	for c := 1; c <= 3; c++ {
		if v := cell(t, tab, 0, c); v > 5 {
			t.Errorf("16KB latency col %d = %v, want L1", c, v)
		}
	}
	// 256KB: GS1280 on-chip L2 (~10ns) beats off-chip caches (~45-55ns).
	if gs, es := cell(t, tab, 1, 1), cell(t, tab, 1, 2); gs >= es {
		t.Errorf("256KB: GS1280 %v not faster than ES45 %v", gs, es)
	}
	// 4MB: the paper's crossover — GS1280 goes to memory, the 16MB caches
	// still hit, so GS1280 is SLOWER here.
	if gs, es := cell(t, tab, 2, 1), cell(t, tab, 2, 2); gs <= es {
		t.Errorf("4MB: GS1280 %v should lose to ES45 %v (16MB cache)", gs, es)
	}
	// 32MB: everyone in memory; GS1280 ~3.8x faster than GS320.
	gs, old := cell(t, tab, 3, 1), cell(t, tab, 3, 3)
	if r := old / gs; r < 3.0 || r > 5.0 {
		t.Errorf("32MB GS320/GS1280 = %.1f, paper 3.8", r)
	}
}

func TestFig05OpenVsClosedPage(t *testing.T) {
	tab := Fig05StrideSweep(nil, []int64{4 << 20}, []int64{64, 16 << 10})
	open := cell(t, tab, 0, 1)
	closed := cell(t, tab, 0, 2)
	if open < 80 || open > 95 {
		t.Errorf("64B-stride memory latency = %v, want ~83-90 (open page)", open)
	}
	if closed < 120 || closed > 140 {
		t.Errorf("16KB-stride latency = %v, want ~130 (closed page)", closed)
	}
}

func TestFig06LinearVsSaturating(t *testing.T) {
	tab := Fig06StreamScaling(nil, []int{4, 16})
	gs4, gs16 := cell(t, tab, 0, 1), cell(t, tab, 1, 1)
	if r := gs16 / gs4; r < 3.4 {
		t.Errorf("GS1280 triad 16/4 CPUs = %.2f, want ~4 (linear)", r)
	}
	old4, old16 := cell(t, tab, 0, 3), cell(t, tab, 1, 3)
	if r := old16 / old4; r > 4.2 {
		t.Errorf("GS320 triad 16/4 = %.2f, should saturate per QBB", r)
	}
	if gs16 < 5*old16 {
		t.Errorf("GS1280 16P %.1f not >> GS320 16P %.1f", gs16, old16)
	}
}

func TestFig12Ratios(t *testing.T) {
	tab := Fig12RemoteLatency()
	avg := findRow(t, tab, "average")
	gs, old := parse(t, avg[1]), parse(t, avg[2])
	if r := old / gs; r < 3.0 || r > 5.0 {
		t.Errorf("16P average latency ratio = %.2f, paper 4x", r)
	}
	// Local row ~83ns.
	local := findRow(t, tab, "0 -> 0")
	if v := parse(t, local[1]); v < 80 || v > 90 {
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
	tab := Fig13LatencyMatrix()
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			got := cell(t, tab, y, x+1)
			want := paper[y][x]
			if got < want*0.95 || got > want*1.05 {
				t.Errorf("matrix[%d][%d] = %v, paper %v (>5%% off)", y, x, got, want)
			}
		}
	}
}

func TestFig14LatencyGrowsSlowly(t *testing.T) {
	tab := Fig14AvgLatency([]int{4, 16, 64})
	gs4 := cell(t, tab, 0, 1)
	gs64 := cell(t, tab, 2, 1)
	if gs64 < gs4 {
		t.Error("average latency should grow with machine size")
	}
	if gs64 > 320 {
		t.Errorf("GS1280 64P average = %v, paper keeps it under ~300ns", gs64)
	}
	old16 := parse(t, findRow(t, tab, "16")[2])
	gs16 := cell(t, tab, 1, 1)
	if old16 < 2.5*gs16 {
		t.Errorf("GS320 16P %v not >> GS1280 %v", old16, gs16)
	}
}

func TestFig15GS1280OutclassesGS320(t *testing.T) {
	tab := Fig15LoadTest([]int{1, 16}, quickWarm, quickMeasure)
	var gsBest, oldBest, gsLat, oldLat float64
	for _, r := range tab.Rows {
		bw, lat := parse(t, r[2]), parse(t, r[3])
		switch {
		case strings.HasPrefix(r[0], "GS1280/16P"):
			if bw > gsBest {
				gsBest, gsLat = bw, lat
			}
		case strings.HasPrefix(r[0], "GS320/16P"):
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
	tab := Tab1ShuffleAnalytic()
	r := findRow(t, tab, "4x2")
	for i, want := range []string{"1.200", "1.500", "2.000"} {
		if r[i+1] != want {
			t.Errorf("4x2 col %d = %s, want %s", i+1, r[i+1], want)
		}
	}
}

func TestFig18ShuffleImproves(t *testing.T) {
	tab := Fig18ShuffleMeasured(nil, []int{8}, quickWarm, quickMeasure)
	torus := findRow(t, tab, "torus")
	sh1 := findRow(t, tab, "shuffle-1hop")
	tbw, tlat := parse(t, torus[2]), parse(t, torus[3])
	sbw, slat := parse(t, sh1[2]), parse(t, sh1[3])
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
	tab := Fig19Fluent(nil, []int{4}, quickWarm, quickMeasure)
	gs, sc, old := cell(t, tab, 0, 1), cell(t, tab, 0, 2), cell(t, tab, 0, 3)
	if gs < sc*0.8 || gs > sc*2.5 {
		t.Errorf("Fluent 4P: GS1280 %.0f vs SC45 %.0f, paper says comparable", gs, sc)
	}
	if gs < old {
		t.Errorf("Fluent: GS1280 %.0f below GS320 %.0f", gs, old)
	}
}

func TestFig21SPDominatedByGS1280(t *testing.T) {
	tab := Fig21NASSP(nil, []int{16}, quickWarm, quickMeasure)
	gs, old := cell(t, tab, 0, 1), cell(t, tab, 0, 3)
	if r := gs / old; r < 2.0 || r > 7.0 {
		t.Errorf("SP 16P GS1280/GS320 = %.1f, paper 2.2-2.6 (we land 3-5)", r)
	}
}

func TestFig23GUPSBendAndRatio(t *testing.T) {
	tab := Fig23GUPS([]int{16, 32}, quickWarm, quickMeasure)
	gs16, gs32 := cell(t, tab, 0, 1), cell(t, tab, 1, 1)
	// The bend: 16P and 32P share a bisection, so scaling flattens.
	if r := gs32 / gs16; r > 1.5 {
		t.Errorf("GUPS 32/16 = %.2f, paper shows a bend (flat cross-section)", r)
	}
	old32 := parse(t, findRow(t, tab, "32")[2])
	if r := gs32 / old32; r < 6 {
		t.Errorf("GUPS 32P GS1280/GS320 = %.1f, paper >10x", r)
	}
}

func TestFig25SwimWorstMesaBest(t *testing.T) {
	tab := Fig25StripingDegradation()
	swim := parse(t, findRow(t, tab, "swim")[1])
	mesa := parse(t, findRow(t, tab, "mesa")[1])
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
	tab := Fig26HotSpotStriping([]int{16}, quickWarm, quickMeasure)
	plain := parse(t, findRow(t, tab, "non-striped")[2])
	striped := parse(t, findRow(t, tab, "striped")[2])
	if r := striped / plain; r < 1.4 || r > 2.3 {
		t.Errorf("hot-spot striping gain = %.2f, paper up to 1.8x", r)
	}
}

func TestFig27HotSpotIsCPU0(t *testing.T) {
	tab := Fig27Xmesh()
	cpu0 := parse(t, findRow(t, tab, "CPU0")[1])
	for _, r := range tab.Rows[1:] {
		if v := parse(t, r[1]); v >= cpu0 {
			t.Errorf("%s Zbox %.0f%% >= CPU0 %.0f%%: hot spot not at CPU0", r[0], v, cpu0)
		}
	}
	if cpu0 < 40 {
		t.Errorf("CPU0 utilization = %.0f%%, want the paper's ~53%% ballpark", cpu0)
	}
}

func TestFig28KeyRatios(t *testing.T) {
	tab := Fig28Summary(nil, quickWarm, quickMeasure)
	get := func(key string) float64 { return parse(t, findRow(t, tab, key)[1]) }
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
// which are fig4's GS1280 rows; and ablation's nak-retry k=30, which is
// fig15[GS1280/16P,k=30].
const quickSuiteReuses = 12 + 5 + 4 + 2 + 2 + 1

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
// the memo must have served exactly quickSuiteReuses results.
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
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", id)
			}
			if tab.ID != id {
				t.Fatalf("table id %q != %q", tab.ID, id)
			}
			if !strings.Contains(tab.String(), tab.Title) {
				t.Fatal("rendering lost the title")
			}
			fixture := filepath.Join("..", "runner", "testdata", id+".quick.csv")
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

var _ = sim.Nanosecond // keep the import for helpers

func TestAblationShapes(t *testing.T) {
	tab := AblationLoadTest(nil, []int{16}, quickWarm, quickMeasure)
	base := findRow(t, tab, "baseline")
	det := findRow(t, tab, "det-routing")
	// Deterministic routing must not beat adaptive on latency under load.
	if parse(t, det[3]) < parse(t, base[3])*0.98 {
		t.Errorf("deterministic routing latency %s beats adaptive %s", det[3], base[3])
	}
	// Closing every page costs the precharge penalty on sequential loads.
	open := parse(t, findRow(t, tab, "open-page (chase)")[3])
	closed := parse(t, findRow(t, tab, "closed-page (chase)")[3])
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
