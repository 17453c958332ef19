package experiments

import (
	"testing"

	"gs1280/internal/topology"
)

// TestDegradedSaturSingleFaultFinite pins the acceptance shape of the
// single-cable-failure sweep on the 8x8 torus: every sample still
// delivers (finite latency, nonzero throughput, nonzero acceptance), and
// the sweep as a whole shows the detour tax — non-minimal hops — while
// staying below the healthy adaptive knee throughput.
func TestDegradedSaturSingleFaultFinite(t *testing.T) {
	tab := quickTable(t, "degraded-satur")
	routing, faults := column(t, tab, "routing"), column(t, tab, "failed cables")
	bwCol, latCol, accCol := column(t, tab, "delivered MB/s"), column(t, tab, "avg latency ns"), column(t, tab, "accepted %")
	reroutesCol, nonMinimalCol := column(t, tab, "reroutes"), column(t, tab, "non-minimal hops")
	var nonMinimal, reroutes float64
	healthyPeak, faultPeak := 0.0, 0.0
	for _, r := range tab.Rows {
		if r[routing] == "adaptive" && r[faults] == "0" {
			if bw := parse(t, r[bwCol]); bw > healthyPeak {
				healthyPeak = bw
			}
		}
		if r[faults] != "1" {
			continue
		}
		bw, lat, acc := parse(t, r[bwCol]), parse(t, r[latCol]), parse(t, r[accCol])
		if bw <= 0 || lat <= 0 || acc <= 0 {
			t.Errorf("1-fault row %v drained or stalled", r)
		}
		nonMinimal += parse(t, r[nonMinimalCol])
		reroutes += parse(t, r[reroutesCol])
		if r[routing] == "adaptive" {
			if bw > faultPeak {
				faultPeak = bw
			}
		}
	}
	if nonMinimal == 0 {
		t.Error("single-fault sweep took no non-minimal hops; the detour never happened")
	}
	if reroutes == 0 {
		t.Error("single-fault sweep rerouted no queued packets; the failure landed on empty queues in every sample")
	}
	if faultPeak >= healthyPeak {
		t.Errorf("1-fault peak %0.f MB/s not below healthy peak %.0f: losing a wrap cable must cost bisection", faultPeak, healthyPeak)
	}
}

// TestDegradedMapShape checks the latency map: every torus cell is a
// finite latency (no partition, no drain — rings 1..8 are all populated on
// an 8x8 torus), the degraded averages are at least the healthy average,
// and the shuffle wiring's sparser rings render as "-" rather than lying.
func TestDegradedMapShape(t *testing.T) {
	tab := quickTable(t, "degraded-map")
	if len(tab.Rows) != degradedMapMaxDist+1 {
		t.Fatalf("map has %d rows, want %d rings + average", len(tab.Rows), degradedMapMaxDist+1)
	}
	torus := []string{"torus", "torus-1f", "torus-2f"}
	for _, r := range tab.Rows {
		for _, name := range torus {
			if v := parse(t, r[column(t, tab, name)]); v <= 0 {
				t.Errorf("torus cell %s/%s not a positive latency", r[0], name)
			}
		}
	}
	healthy, oneFault, twoFault := cell(t, tab, torus[0], "average"), cell(t, tab, torus[1], "average"), cell(t, tab, torus[2], "average")
	if oneFault < healthy || twoFault < oneFault {
		t.Errorf("average latency not monotone in faults: %v / %v / %v", healthy, oneFault, twoFault)
	}
}

// TestDegradedFaultSets pins the fault-set geometry on both wirings: the
// level-1 set is the row-0 X wrap cable, level 2 adds the column-0
// vertical closure (South wrap on the torus, twist chord on the shuffle),
// and every key names a real cable.
func TestDegradedFaultSets(t *testing.T) {
	for _, w := range degradedMapWirings {
		topo := w.mk()
		if got := len(degradedFaults(topo, 0)); got != 0 {
			t.Errorf("%s: level 0 has %d faults", topo.Name, got)
		}
		faults := degradedFaults(topo, 2)
		if len(faults) != 2 {
			t.Fatalf("%s: level 2 has %d faults", topo.Name, len(faults))
		}
		// Both must be cables, and masking both must leave the fabric
		// connected (NewMask panics otherwise).
		var keys []topology.LinkKey
		for _, k := range faults {
			keys = append(keys, k, k.Reverse())
		}
		topo.NewMask(keys)
		if faults[0].Dir != topology.East {
			t.Errorf("%s: first fault %v is not the X wrap", topo.Name, faults[0])
		}
		if d := faults[1].Dir; d != topology.South && d != topology.Shuffle {
			t.Errorf("%s: second fault %v is not a vertical closure", topo.Name, faults[1])
		}
	}
}
