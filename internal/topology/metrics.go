package topology

import "fmt"

// RoutePolicy selects how shuffle links may be used, mirroring §4.1's two
// measured schemes. On a plain torus all policies are equivalent.
type RoutePolicy int

const (
	// RouteAdaptive allows every link on any minimal path (the default
	// GS1280 routing and the natural policy for a plain torus).
	RouteAdaptive RoutePolicy = iota
	// RouteShuffle1Hop allows a shuffle link only as a packet's first hop
	// ("shuffle with 1-hop" in Fig 18).
	RouteShuffle1Hop
	// RouteShuffle2Hop allows shuffle links within a packet's first two
	// hops ("shuffle with 2-hops" in Fig 18).
	RouteShuffle2Hop
)

func (p RoutePolicy) String() string {
	switch p {
	case RouteAdaptive:
		return "adaptive"
	case RouteShuffle1Hop:
		return "shuffle-1hop"
	case RouteShuffle2Hop:
		return "shuffle-2hop"
	}
	return "RoutePolicy(?)"
}

// budget reports how many more hops may use shuffle links for a packet
// that has already taken hopsTaken hops. A negative result means
// "unlimited".
func (p RoutePolicy) budget(hopsTaken int) int {
	switch p {
	case RouteShuffle1Hop:
		if b := 1 - hopsTaken; b > 0 {
			return b
		}
		return 0
	case RouteShuffle2Hop:
		if b := 2 - hopsTaken; b > 0 {
			return b
		}
		return 0
	default:
		return -1
	}
}

// ensurePolicyTables lazily builds the budget-restricted distance tables
// d0 (no shuffle links), d1 (shuffle in first hop) and d2 (first two hops),
// and from their rows the matching next-hop sets: under budget b a hop must
// reach a node one step closer to dst under budget b-1 (0 for b = 0), and
// budget 0 may not take a shuffle port.
func (t *Topology) ensurePolicyTables() {
	if t.distBudget != nil {
		return
	}
	n := t.N()
	shufflePorts := make([]HopSet, n) //lint:alloc-ok one-time lazy table build per topology
	for id, edges := range t.adj {
		for i, e := range edges {
			if e.Dir == Shuffle {
				shufflePorts[id] |= 1 << i
			}
		}
	}
	d0, from, to := t.bfs(shufflePorts, nil)
	if d0 == nil {
		panic(fmt.Sprintf("topology: graph disconnected without %v links from %s node %d (source %d)", Shuffle, t.Name, to, from))
	}
	//lint:alloc-ok one-time lazy table build per topology, cached in distBudget
	step := func(prev [][]int16) [][]int16 {
		cells := make([]int16, n*n) //lint:alloc-ok one-time lazy table build per topology
		next := make([][]int16, n)  //lint:alloc-ok one-time lazy table build per topology
		for src := 0; src < n; src++ {
			row := cells[src*n : (src+1)*n : (src+1)*n]
			for dst := 0; dst < n; dst++ {
				best := d0[src][dst]
				if src != dst {
					for _, e := range t.adj[src] {
						if c := prev[e.To][dst] + 1; c < best {
							best = c
						}
					}
				}
				row[dst] = best
			}
			next[src] = row
		}
		return next
	}
	d1 := step(d0)
	d2 := step(d1)
	dist := [][][]int16{d0, d1, d2}     //lint:alloc-ok one-time lazy table build per topology
	next := make([][]HopSet, len(dist)) //lint:alloc-ok one-time lazy table build per topology
	for b := range dist {
		next[b] = make([]HopSet, n*n) //lint:alloc-ok one-time lazy table build per topology
		if b == 0 {
			t.fillNext(next[b], shufflePorts, dist[b], dist[b])
		} else {
			t.fillNext(next[b], nil, dist[b], dist[b-1])
		}
	}
	t.distBudget, t.nextBudget = dist, next
}

// DistPolicy reports the minimal hops from a to b for a packet that has
// already taken hopsTaken hops under the given policy.
func (t *Topology) DistPolicy(a, b NodeID, policy RoutePolicy, hopsTaken int) int {
	budget := policy.budget(hopsTaken)
	if budget < 0 || !t.shuffle {
		return t.Dist(a, b)
	}
	t.ensurePolicyTables()
	if budget > 2 {
		budget = 2
	}
	return int(t.distBudget[budget][a][b])
}

// NextHopsPolicy reports the edges out of cur on a minimal path to dst for
// a packet that has taken hopsTaken hops under policy. Like NextHops, the
// result order is deterministic and the call panics when cur == dst.
func (t *Topology) NextHopsPolicy(cur, dst NodeID, policy RoutePolicy, hopsTaken int) []Edge {
	return t.AppendNextHopsPolicy(nil, cur, dst, policy, hopsTaken)
}

// AppendNextHopsPolicy appends the policy-restricted minimal next hops
// onto hops and returns the extended slice — the scratch-reuse variant of
// NextHopsPolicy (see AppendNextHops).
func (t *Topology) AppendNextHopsPolicy(hops []Edge, cur, dst NodeID, policy RoutePolicy, hopsTaken int) []Edge {
	return t.appendSet(hops, cur, t.NextHopSetPolicy(cur, dst, policy, hopsTaken))
}

// NextHopSetPolicy reports the edges AppendNextHopsPolicy appends, as a
// set over cur's adjacency: one read of the budget's table. The router
// walks the set's bits instead of copying edges.
func (t *Topology) NextHopSetPolicy(cur, dst NodeID, policy RoutePolicy, hopsTaken int) HopSet {
	budget := policy.budget(hopsTaken)
	if budget < 0 || !t.shuffle {
		return t.nextHopSet(cur, dst)
	}
	if cur == dst {
		panic("topology: NextHopsPolicy with cur == dst")
	}
	t.ensurePolicyTables()
	if budget > 2 {
		budget = 2
	}
	return t.nextBudget[budget][int(dst)*t.N()+int(cur)]
}

// AvgHops reports the mean hop count over all ordered node pairs
// (including a node to itself, matching the paper's analytic model: a
// 4x2 torus averages 1.5 hops and its shuffle 1.25, the 1.200 ratio of
// Table 1).
func (t *Topology) AvgHops(policy RoutePolicy) float64 {
	n := t.N()
	var sum int64
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			sum += int64(t.DistPolicy(NodeID(a), NodeID(b), policy, 0))
		}
	}
	return float64(sum) / float64(n*n)
}

// WorstHops reports the network diameter under policy.
func (t *Topology) WorstHops(policy RoutePolicy) int {
	n := t.N()
	worst := 0
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if d := t.DistPolicy(NodeID(a), NodeID(b), policy, 0); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// BisectionWidth reports the number of links crossing the cut that splits
// the machine into two halves across the X (long) dimension — the paper's
// "bisection width" column in Table 1 and the "cross-sectional bandwidth"
// it invokes to explain the GUPS bend at 32 CPUs.
func (t *Topology) BisectionWidth() int {
	half := t.W / 2
	count := 0
	for a := 0; a < t.N(); a++ {
		ca := t.Coord(NodeID(a))
		for _, e := range t.adj[NodeID(a)] {
			cb := t.Coord(e.To)
			if ca.X < half && cb.X >= half {
				count++
			}
		}
	}
	return count
}

// AvgDist is shorthand for AvgHops(RouteAdaptive).
func (t *Topology) AvgDist() float64 { return t.AvgHops(RouteAdaptive) }
