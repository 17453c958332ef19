package topology

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The next-hop tables replace a scan of every port's distance on every
// call. The reference functions below are that scan: a port is a next hop
// when it is not excluded and its far end is one step closer to dst. Each
// table must return exactly the reference's edges, in the reference's
// order, for every ordered pair.

// refDist is a plain BFS from every node over the ports excl leaves in,
// independent of Topology.bfs; ok is false when some pair is unreachable.
func refDist(t *Topology, excl func(n NodeID, i int) bool) (dist [][]int, ok bool) {
	n := t.N()
	dist = make([][]int, n)
	for src := 0; src < n; src++ {
		d := make([]int, n)
		for i := range d {
			d[i] = -1
		}
		d[src] = 0
		queue := []NodeID{NodeID(src)}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for i, e := range t.adj[cur] {
				if excl != nil && excl(cur, i) {
					continue
				}
				if d[e.To] == -1 {
					d[e.To] = d[cur] + 1
					queue = append(queue, e.To)
				}
			}
		}
		for _, v := range d {
			if v == -1 {
				return nil, false
			}
		}
		dist[src] = d
	}
	return dist, true
}

// refScan is the distance scan the tables replace: the ports of cur, in
// adjacency order, that excl leaves in and whose far end is one step closer
// to dst under there than cur is under here.
func refScan(t *Topology, cur, dst NodeID, here, there [][]int, excl func(n NodeID, i int) bool) []Edge {
	var hops []Edge
	want := here[cur][dst] - 1
	for i, e := range t.adj[cur] {
		if excl != nil && excl(cur, i) {
			continue
		}
		if there[e.To][dst] == want {
			hops = append(hops, e)
		}
	}
	return hops
}

func hopTableTopologies() []*Topology {
	return []*Topology{
		NewTorus(2, 2), NewTorus(2, 5), NewTorus(4, 2), NewTorus(8, 8), NewTorus(16, 16),
		NewShuffle(2, 2), NewShuffle(2, 4), NewShuffle(8, 2), NewShuffle(8, 8), NewShuffle(16, 16),
		NewMesh(2, 3), NewMesh(8, 8), NewMesh(16, 16),
	}
}

// checkPairs requires got to return want's edges, in order, for every
// ordered pair of distinct nodes.
func checkPairs(t *testing.T, tp *Topology, what string, got func(cur, dst NodeID) []Edge, want func(cur, dst NodeID) []Edge) {
	t.Helper()
	for a := 0; a < tp.N(); a++ {
		for b := 0; b < tp.N(); b++ {
			if a == b {
				continue
			}
			cur, dst := NodeID(a), NodeID(b)
			g, w := got(cur, dst), want(cur, dst)
			if len(w) == 0 {
				t.Fatalf("%s %s: reference has no hop %d->%d", tp.Name, what, a, b)
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s %s: hops %d->%d = %v, scan gives %v", tp.Name, what, a, b, g, w)
			}
		}
	}
}

// TestHopTablesMatchScan pins the healthy table and the three
// shuffle-budget tables, and the distance rows behind them, against the
// scan over an independent BFS.
func TestHopTablesMatchScan(t *testing.T) {
	for _, tp := range hopTableTopologies() {
		dist, ok := refDist(tp, nil)
		if !ok {
			t.Fatalf("%s: reference BFS found the graph disconnected", tp.Name)
		}
		for a := range dist {
			for b := range dist[a] {
				if got := tp.Dist(NodeID(a), NodeID(b)); got != dist[a][b] {
					t.Fatalf("%s: dist(%d,%d) = %d, reference %d", tp.Name, a, b, got, dist[a][b])
				}
			}
		}
		checkPairs(t, tp, "healthy",
			func(cur, dst NodeID) []Edge { return tp.NextHops(cur, dst) },
			func(cur, dst NodeID) []Edge { return refScan(tp, cur, dst, dist, dist, nil) })

		// Budget tables, reached through every (policy, hops taken) that
		// selects them. Budget b's hop reaches a node one step closer under
		// budget b-1; budget 0 may not take a shuffle port.
		isShuffle := func(n NodeID, i int) bool { return tp.adj[n][i].Dir == Shuffle }
		d0, ok := refDist(tp, isShuffle)
		if !ok {
			if tp.shuffle {
				t.Fatalf("%s: disconnected without shuffle links", tp.Name)
			}
			d0 = dist
		}
		budgets := [][][]int{d0}
		for b := 1; b <= 2; b++ {
			prev := budgets[b-1]
			next := make([][]int, tp.N())
			for src := range next {
				next[src] = make([]int, tp.N())
				for dst := range next[src] {
					best := d0[src][dst]
					if src != dst {
						for _, e := range tp.adj[src] {
							best = min(best, prev[e.To][dst]+1)
						}
					}
					next[src][dst] = best
				}
			}
			budgets = append(budgets, next)
		}
		for _, c := range []struct {
			policy RoutePolicy
			taken  int
			budget int // -1: unrestricted
		}{
			{RouteAdaptive, 0, -1}, {RouteAdaptive, 3, -1},
			{RouteShuffle1Hop, 0, 1}, {RouteShuffle1Hop, 1, 0}, {RouteShuffle1Hop, 4, 0},
			{RouteShuffle2Hop, 0, 2}, {RouteShuffle2Hop, 1, 1}, {RouteShuffle2Hop, 2, 0},
		} {
			here, there, excl := dist, dist, func(NodeID, int) bool { return false }
			if c.budget >= 0 && tp.shuffle {
				here, there = budgets[c.budget], budgets[max(c.budget-1, 0)]
				if c.budget == 0 {
					excl = isShuffle
				}
			}
			for a := 0; a < tp.N(); a++ {
				for b := 0; b < tp.N(); b++ {
					if got := tp.DistPolicy(NodeID(a), NodeID(b), c.policy, c.taken); got != here[a][b] {
						t.Fatalf("%s %v after %d hops: dist(%d,%d) = %d, reference %d",
							tp.Name, c.policy, c.taken, a, b, got, here[a][b])
					}
				}
			}
			checkPairs(t, tp, fmt.Sprintf("%v after %d hops", c.policy, c.taken),
				func(cur, dst NodeID) []Edge { return tp.NextHopsPolicy(cur, dst, c.policy, c.taken) },
				func(cur, dst NodeID) []Edge { return refScan(tp, cur, dst, here, there, excl) })
		}
	}
}

// TestMaskHopTablesMatchScan pins the mask tables over seeded failure
// sets: whole cables (both directions) and one-way edges, kept only when
// every node still reaches every other.
func TestMaskHopTablesMatchScan(t *testing.T) {
	for _, tp := range hopTableTopologies() {
		links := tp.Links()
		rng := rand.New(rand.NewSource(int64(tp.N())))
		masks := 0
		for trial := 0; masks < 4 && trial < 64; trial++ {
			var keys []LinkKey
			seen := map[LinkKey]bool{}
			for f := 1 + rng.Intn(4); f > 0; f-- {
				k := links[rng.Intn(len(links))]
				pair := []LinkKey{k}
				if trial%2 == 0 {
					pair = append(pair, k.Reverse()) // a whole cable
				}
				for _, k := range pair {
					if !seen[k] {
						seen[k] = true
						keys = append(keys, k)
					}
				}
			}
			failed := func(n NodeID, i int) bool {
				e := tp.adj[n][i]
				return seen[LinkKey{From: n, To: e.To, Dir: e.Dir}]
			}
			dist, ok := refDist(tp, failed)
			if !ok {
				continue // partitioning: NewMask rightly panics
			}
			masks++
			m := tp.NewMask(keys)
			for a := range dist {
				for b := range dist[a] {
					if got := m.Dist(NodeID(a), NodeID(b)); got != dist[a][b] {
						t.Fatalf("%s mask %v: dist(%d,%d) = %d, reference %d", tp.Name, keys, a, b, got, dist[a][b])
					}
				}
			}
			checkPairs(t, tp, fmt.Sprintf("mask %v", keys),
				func(cur, dst NodeID) []Edge { return tp.NextHopsMasked(cur, dst, m) },
				func(cur, dst NodeID) []Edge { return refScan(tp, cur, dst, dist, dist, failed) })
		}
		if masks == 0 {
			t.Fatalf("%s: no non-partitioning failure set drawn", tp.Name)
		}
	}
}

// TestTopologyBuildAllocsPerNode bounds a build's allocations: the BFS
// shares one backing array across its rows and indexes its queue from the
// head, and the adjacency rows share one array, so an 8x8 torus costs far
// fewer than 4 allocations per node (a pop-and-append queue with a row per
// source costs 12).
func TestTopologyBuildAllocsPerNode(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() { NewTorus(8, 8) })
	if limit := 4.0 * 64; allocs > limit {
		t.Fatalf("NewTorus(8, 8) made %.0f allocations, more than %.0f (4 per node)", allocs, limit)
	}
}
