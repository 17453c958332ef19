package topology

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTorusCoordNodeRoundTrip(t *testing.T) {
	tp := NewTorus(4, 4)
	for n := 0; n < tp.N(); n++ {
		if got := tp.Node(tp.Coord(NodeID(n))); got != NodeID(n) {
			t.Fatalf("round trip failed for node %d: got %d", n, got)
		}
	}
	if tp.Node(Coord{-1, -1}) != tp.Node(Coord{3, 3}) {
		t.Fatal("negative coordinates should wrap")
	}
}

func TestTorusDegree(t *testing.T) {
	// Every node of a WxH torus (W,H >= 3) has degree 4.
	tp := NewTorus(4, 4)
	for n := 0; n < tp.N(); n++ {
		if got := len(tp.Neighbors(NodeID(n))); got != 4 {
			t.Fatalf("node %d degree = %d, want 4", n, got)
		}
	}
	// In a 4x2 torus the vertical pair is doubly linked: degree 4 still
	// (E, W, and two vertical links).
	tp = NewTorus(4, 2)
	for n := 0; n < tp.N(); n++ {
		if got := len(tp.Neighbors(NodeID(n))); got != 4 {
			t.Fatalf("4x2 node %d degree = %d, want 4", n, got)
		}
	}
}

func TestTorusDistances(t *testing.T) {
	tp := NewTorus(4, 4)
	cases := []struct {
		a, b Coord
		want int
	}{
		{Coord{0, 0}, Coord{0, 0}, 0},
		{Coord{0, 0}, Coord{1, 0}, 1},
		{Coord{0, 0}, Coord{3, 0}, 1}, // wrap
		{Coord{0, 0}, Coord{2, 0}, 2},
		{Coord{0, 0}, Coord{2, 2}, 4}, // worst case in 4x4
		{Coord{1, 1}, Coord{3, 3}, 4},
	}
	for _, c := range cases {
		if got := tp.Dist(tp.Node(c.a), tp.Node(c.b)); got != c.want {
			t.Errorf("dist %v->%v = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: torus distance equals the analytic ring-distance sum.
func TestTorusDistanceMatchesAnalytic(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {8, 4}, {5, 3}, {8, 8}} {
		w, h := dims[0], dims[1]
		tp := NewTorus(w, h)
		for a := 0; a < tp.N(); a++ {
			for b := 0; b < tp.N(); b++ {
				ca, cb := tp.Coord(NodeID(a)), tp.Coord(NodeID(b))
				dx := ringDist(ca.X, cb.X, w)
				dy := ringDist(ca.Y, cb.Y, h)
				if got := tp.Dist(NodeID(a), NodeID(b)); got != dx+dy {
					t.Fatalf("%dx%d dist %v->%v = %d, want %d", w, h, ca, cb, got, dx+dy)
				}
			}
		}
	}
}

func ringDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

// Property: distances are symmetric and satisfy the triangle inequality.
func TestDistanceMetricProperties(t *testing.T) {
	for _, tp := range []*Topology{NewTorus(4, 4), NewShuffle(4, 2), NewShuffle(8, 4)} {
		n := tp.N()
		f := func(a, b, c uint8) bool {
			x, y, z := NodeID(int(a)%n), NodeID(int(b)%n), NodeID(int(c)%n)
			if tp.Dist(x, y) != tp.Dist(y, x) {
				return false
			}
			return tp.Dist(x, z) <= tp.Dist(x, y)+tp.Dist(y, z)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatalf("%s: %v", tp.Name, err)
		}
	}
}

func TestNextHopsAreMinimalAndComplete(t *testing.T) {
	for _, tp := range []*Topology{NewTorus(4, 4), NewTorus(8, 4), NewShuffle(4, 2)} {
		for a := 0; a < tp.N(); a++ {
			for b := 0; b < tp.N(); b++ {
				if a == b {
					continue
				}
				hops := tp.NextHops(NodeID(a), NodeID(b))
				if len(hops) == 0 {
					t.Fatalf("%s: no hops %d->%d", tp.Name, a, b)
				}
				for _, e := range hops {
					if tp.Dist(e.To, NodeID(b)) != tp.Dist(NodeID(a), NodeID(b))-1 {
						t.Fatalf("%s: non-minimal hop %d->%d via %d", tp.Name, a, b, e.To)
					}
				}
			}
		}
	}
}

func TestNextHopsPathTerminates(t *testing.T) {
	// Following first next-hops must reach the destination in exactly
	// Dist hops.
	tp := NewTorus(8, 8)
	for a := 0; a < tp.N(); a += 7 {
		for b := 0; b < tp.N(); b += 5 {
			if a == b {
				continue
			}
			cur := NodeID(a)
			steps := 0
			for cur != NodeID(b) {
				cur = tp.NextHops(cur, NodeID(b))[0].To
				steps++
				if steps > tp.N() {
					t.Fatalf("routing loop %d->%d", a, b)
				}
			}
			if steps != tp.Dist(NodeID(a), NodeID(b)) {
				t.Fatalf("path length %d, want %d", steps, tp.Dist(NodeID(a), NodeID(b)))
			}
		}
	}
}

func TestAdaptivityOfTorus(t *testing.T) {
	// Diagonal destinations must offer two minimal directions.
	tp := NewTorus(4, 4)
	hops := tp.NextHops(tp.Node(Coord{0, 0}), tp.Node(Coord{1, 1}))
	if len(hops) != 2 {
		t.Fatalf("diagonal next hops = %d, want 2", len(hops))
	}
	// Same-row destinations have a single minimal direction.
	hops = tp.NextHops(tp.Node(Coord{0, 0}), tp.Node(Coord{1, 0}))
	if len(hops) != 1 {
		t.Fatalf("same-row next hops = %d, want 1", len(hops))
	}
}

func TestLinkClasses(t *testing.T) {
	tp := NewTorus(4, 4)
	// (0,0)-(0,1) is a module pair.
	found := false
	for _, e := range tp.Neighbors(tp.Node(Coord{0, 0})) {
		if e.To == tp.Node(Coord{0, 1}) && e.Dir == South {
			found = true
			if e.Class != ModuleLink {
				t.Errorf("module partner link class = %v, want module", e.Class)
			}
		}
	}
	if !found {
		t.Fatal("missing south link to module partner")
	}
	// (0,1)-(0,2) crosses modules: board link.
	for _, e := range tp.Neighbors(tp.Node(Coord{0, 1})) {
		if e.To == tp.Node(Coord{0, 2}) && e.Class != BoardLink {
			t.Errorf("inter-module link class = %v, want board", e.Class)
		}
	}
	// Wrap links are cables.
	for _, e := range tp.Neighbors(tp.Node(Coord{3, 0})) {
		if e.To == tp.Node(Coord{0, 0}) && e.Class != CableLink {
			t.Errorf("wrap link class = %v, want cable", e.Class)
		}
	}
}

func TestShuffle4x2MatchesPaperTable1(t *testing.T) {
	// Table 1, row 4x2: average latency gain 1.200, worst-case gain 1.500,
	// bisection gain 2.000.
	torus, shuffle := NewTorus(4, 2), NewShuffle(4, 2)
	if g := torus.AvgDist() / shuffle.AvgDist(); math.Abs(g-1.200) > 1e-9 {
		t.Errorf("4x2 average gain = %.3f, want 1.200", g)
	}
	if g := float64(torus.WorstHops(RouteAdaptive)) / float64(shuffle.WorstHops(RouteAdaptive)); math.Abs(g-1.5) > 1e-9 {
		t.Errorf("4x2 worst gain = %.3f, want 1.500", g)
	}
	if g := float64(shuffle.BisectionWidth()) / float64(torus.BisectionWidth()); math.Abs(g-2.0) > 1e-9 {
		t.Errorf("4x2 bisection gain = %.3f, want 2.000", g)
	}
}

func TestShuffleNeverWorseThanTorus(t *testing.T) {
	for _, dims := range [][2]int{{4, 2}, {4, 4}, {8, 4}, {8, 8}} {
		w, h := dims[0], dims[1]
		torus, shuffle := NewTorus(w, h), NewShuffle(w, h)
		if shuffle.AvgDist() > torus.AvgDist()+1e-9 {
			t.Errorf("%dx%d shuffle average %.3f worse than torus %.3f",
				w, h, shuffle.AvgDist(), torus.AvgDist())
		}
		if shuffle.WorstHops(RouteAdaptive) > torus.WorstHops(RouteAdaptive) {
			t.Errorf("%dx%d shuffle worst worse than torus", w, h)
		}
	}
}

func TestShufflePreservesLinkCount(t *testing.T) {
	// The shuffle is a re-cabling: it must not add or remove links.
	for _, dims := range [][2]int{{4, 2}, {4, 4}, {8, 4}, {8, 8}, {16, 8}} {
		w, h := dims[0], dims[1]
		if ct, cs := countEdges(NewTorus(w, h)), countEdges(NewShuffle(w, h)); ct != cs {
			t.Errorf("%dx%d link count torus %d != shuffle %d", w, h, ct, cs)
		}
	}
}

func countEdges(t *Topology) int {
	total := 0
	for n := 0; n < t.N(); n++ {
		total += len(t.Neighbors(NodeID(n)))
	}
	return total / 2
}

func TestRoutePolicyBudgets(t *testing.T) {
	sh := NewShuffle(8, 2)
	src, dst := sh.Node(Coord{0, 0}), sh.Node(Coord{4, 0})
	// With the chord the far node is 1 hop away.
	if d := sh.DistPolicy(src, dst, RouteShuffle1Hop, 0); d != 1 {
		t.Fatalf("1-hop policy dist = %d, want 1", d)
	}
	// A packet that already took a hop may no longer use the chord under
	// the 1-hop policy; it must take the plain torus path.
	d0 := sh.DistPolicy(src, dst, RouteShuffle1Hop, 1)
	noShuffle := make([]HopSet, sh.N())
	for n := range noShuffle {
		for i, e := range sh.Neighbors(NodeID(n)) {
			if e.Dir == Shuffle {
				noShuffle[n] |= 1 << i
			}
		}
	}
	torusOnly, _, _ := sh.bfs(noShuffle, nil)
	if d1 := torusOnly[src][dst]; int(d1) != d0 {
		t.Fatalf("1-hop policy after first hop = %d, want torus-only %d", d0, d1)
	}
	// 2-hop policy still allows the chord after one hop.
	if d := sh.DistPolicy(src, dst, RouteShuffle2Hop, 1); d != 1 {
		t.Fatalf("2-hop policy dist after 1 hop = %d, want 1", d)
	}
}

func TestNextHopsPolicyExcludesShuffleWhenSpent(t *testing.T) {
	sh := NewShuffle(8, 2)
	src, dst := sh.Node(Coord{0, 0}), sh.Node(Coord{4, 0})
	for _, e := range sh.NextHopsPolicy(src, dst, RouteShuffle1Hop, 1) {
		if e.Dir == Shuffle {
			t.Fatal("shuffle link offered after budget exhausted")
		}
	}
	// At hop 0 the chord must be offered (it is the unique minimal hop).
	hops := sh.NextHopsPolicy(src, dst, RouteShuffle1Hop, 0)
	hasShuffle := false
	for _, e := range hops {
		if e.Dir == Shuffle {
			hasShuffle = true
		}
	}
	if !hasShuffle {
		t.Fatal("shuffle link not offered at first hop")
	}
}

func TestPolicyPathsTerminate(t *testing.T) {
	// Following policy next-hops (with hop accounting) must always reach
	// the destination without loops.
	for _, policy := range []RoutePolicy{RouteAdaptive, RouteShuffle1Hop, RouteShuffle2Hop} {
		sh := NewShuffle(8, 4)
		for a := 0; a < sh.N(); a++ {
			for b := 0; b < sh.N(); b++ {
				if a == b {
					continue
				}
				cur, hops := NodeID(a), 0
				for cur != NodeID(b) {
					cur = sh.NextHopsPolicy(cur, NodeID(b), policy, hops)[0].To
					hops++
					if hops > sh.N() {
						t.Fatalf("policy %v loop %d->%d", policy, a, b)
					}
				}
				if want := sh.DistPolicy(NodeID(a), NodeID(b), policy, 0); hops != want {
					t.Fatalf("policy %v path %d->%d took %d hops, want %d", policy, a, b, hops, want)
				}
			}
		}
	}
}

func TestBisectionWidthTorus(t *testing.T) {
	// A WxH torus has 2 links per row crossing the X cut.
	if got := NewTorus(4, 4).BisectionWidth(); got != 8 {
		t.Fatalf("4x4 bisection = %d, want 8", got)
	}
	if got := NewTorus(8, 4).BisectionWidth(); got != 8 {
		t.Fatalf("8x4 bisection = %d, want 8", got)
	}
	// 4x8 (GUPS machine): E/W cross-section explains the bend at 32 CPUs.
	if got := NewTorus(8, 8).BisectionWidth(); got != 16 {
		t.Fatalf("8x8 bisection = %d, want 16", got)
	}
}

func TestAvgHopsKnownValues(t *testing.T) {
	// Ring-of-N average (over ordered pairs incl. self) is N/4 per
	// dimension.
	if got := NewTorus(4, 4).AvgDist(); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("4x4 avg = %v, want 2.0", got)
	}
	if got := NewTorus(8, 4).AvgDist(); math.Abs(got-3.0) > 1e-9 {
		t.Fatalf("8x4 avg = %v, want 3.0", got)
	}
	if got := NewTorus(4, 2).AvgDist(); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("4x2 avg = %v, want 1.5", got)
	}
}

func TestWorstHopsKnownValues(t *testing.T) {
	if got := NewTorus(4, 4).WorstHops(RouteAdaptive); got != 4 {
		t.Fatalf("4x4 worst = %d, want 4", got)
	}
	if got := NewTorus(8, 8).WorstHops(RouteAdaptive); got != 8 {
		t.Fatalf("8x8 worst = %d, want 8", got)
	}
}

func TestInvalidGridsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { NewTorus(0, 4) },
		func() { NewTorus(4, 0) },
		func() { NewShuffle(3, 2) }, // odd width has no W/2 chord
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid grid did not panic")
				}
			}()
			f()
		}()
	}
}

func TestDirString(t *testing.T) {
	if North.String() != "N" || Shuffle.String() != "X" {
		t.Fatal("unexpected Dir strings")
	}
	if ModuleLink.String() != "module" || CableLink.String() != "cable" {
		t.Fatal("unexpected LinkClass strings")
	}
}

func BenchmarkNextHops(b *testing.B) {
	tp := NewTorus(8, 8)
	for i := 0; i < b.N; i++ {
		_ = tp.NextHops(NodeID(i%63), 63)
	}
}

func TestMeshVsTorusDistances(t *testing.T) {
	mesh, torus := NewMesh(4, 4), NewTorus(4, 4)
	// Corner-to-corner: mesh pays the full Manhattan distance; the torus
	// wraps in one hop per dimension.
	a, b := mesh.Node(Coord{0, 0}), mesh.Node(Coord{3, 3})
	if d := mesh.Dist(a, b); d != 6 {
		t.Fatalf("mesh corner distance = %d, want 6", d)
	}
	if d := torus.Dist(a, b); d != 2 {
		t.Fatalf("torus corner distance = %d, want 2", d)
	}
	if mesh.AvgDist() <= torus.AvgDist() {
		t.Fatal("mesh average distance should exceed torus")
	}
	// A mesh has no wrap cables: every link is module or board class.
	for n := 0; n < mesh.N(); n++ {
		for _, e := range mesh.Neighbors(NodeID(n)) {
			if e.Class == CableLink {
				t.Fatalf("mesh has a cable link at node %d", n)
			}
		}
	}
}

func TestMeshDegrees(t *testing.T) {
	m := NewMesh(3, 3)
	// Corner 2, edge 3, center 4.
	if d := len(m.Neighbors(m.Node(Coord{0, 0}))); d != 2 {
		t.Fatalf("corner degree = %d", d)
	}
	if d := len(m.Neighbors(m.Node(Coord{1, 0}))); d != 3 {
		t.Fatalf("edge degree = %d", d)
	}
	if d := len(m.Neighbors(m.Node(Coord{1, 1}))); d != 4 {
		t.Fatalf("center degree = %d", d)
	}
}

// TestPatternMappings pins the synthetic-traffic destination mappings.
func TestPatternMappings(t *testing.T) {
	sq := NewTorus(4, 4)
	for n := 0; n < sq.N(); n++ {
		id := NodeID(n)
		// Transpose is an involution fixing the diagonal.
		if got := sq.Transpose(sq.Transpose(id)); got != id {
			t.Fatalf("transpose not involutive at %d: %d", id, got)
		}
		c := sq.Coord(id)
		if want := sq.Node(Coord{X: c.Y, Y: c.X}); sq.Transpose(id) != want {
			t.Fatalf("transpose(%d) = %d, want %d", id, sq.Transpose(id), want)
		}
		// Bit-complement pairs i with N-1-i.
		if got := sq.BitComplement(id); got != NodeID(sq.N()-1-n) {
			t.Fatalf("bitcomplement(%d) = %d", id, got)
		}
		if got := sq.BitComplement(sq.BitComplement(id)); got != id {
			t.Fatalf("bitcomplement not involutive at %d", id)
		}
		// Nearest neighbor moves one column east, wrapping.
		nb := sq.Coord(sq.NearestNeighbor(id))
		if nb.X != (c.X+1)%sq.W || nb.Y != c.Y {
			t.Fatalf("neighbor(%d) = %+v", id, nb)
		}
	}
	// Transpose demands a square grid.
	rect := NewTorus(8, 4)
	defer func() {
		if recover() == nil {
			t.Error("transpose on a rectangle did not panic")
		}
	}()
	rect.Transpose(0)
}
