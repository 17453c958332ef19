package topology

import "fmt"

// Degraded-fabric routing. The paper's §4.1 recabling argument rests on the
// torus's path diversity — redundant double links at H=2, swappable wrap
// cables — and the operational payoff of that diversity is that a machine
// with a failed cable or router port keeps running, merely rerouting around
// the hole. A Mask is the routing-table side of that story: the same BFS
// tables as the healthy topology, rebuilt with a set of failed directed
// edges excluded. Routes fall back to non-minimal paths (non-minimal in the
// healthy metric; still shortest in the degraded graph) exactly when every
// healthy minimal next hop is failed, and construction panics only when the
// failure set truly partitions the machine.

// LinkKey names one directed edge of a topology: the edge out of From
// toward To through port Dir. The (From, To, Dir) triple is unique even for
// the H=2 double links, where the module link and the redundant wrap cable
// join the same node pair through opposite ports. Reverse gives the other
// direction of the same physical link; failing a cable fails both.
type LinkKey struct {
	From, To NodeID
	Dir      Dir
}

// Reverse reports the key of the same physical link traversed the other
// way (addLink wires the reverse edge through the opposite port; shuffle
// links are Shuffle in both directions).
func (k LinkKey) Reverse() LinkKey {
	return LinkKey{From: k.To, To: k.From, Dir: opposite(k.Dir)}
}

func (k LinkKey) String() string {
	return fmt.Sprintf("%d-%v->%d", int(k.From), k.Dir, int(k.To))
}

// Mask is a rebuilt routing view of a topology with some directed edges
// failed: a fresh all-pairs distance table over the surviving graph and
// the next-hop sets it implies, so the router's next-hop step stays one
// table read with no map lookups. A Mask is immutable once built;
// rebuilding after each fail/restore event is cheap (one BFS per node,
// machines top out at 256 nodes) and keeps routing deterministic — there
// is no incremental state to drift.
type Mask struct {
	t      *Topology
	failed map[LinkKey]struct{}
	// failedAt[n] marks node n's failed ports (bit i is adjacency entry i).
	failedAt []HopSet
	dist     [][]int16
	// next[dst*N+cur] is cur's next-hop set toward dst over the surviving
	// graph.
	next []HopSet
}

// NewMask rebuilds routing tables with the given directed edges excluded.
// Keys are directed: to take out a physical cable, pass both the key and
// its Reverse (network.FailLink does). Unknown edges panic — a typo'd
// failure set would otherwise silently degrade nothing. NewMask panics if
// the surviving graph is partitioned; any single-link failure on a torus
// leaves it connected, so a partition means the caller tore out a cut set
// and no routing table can help.
func (t *Topology) NewMask(failed []LinkKey) *Mask {
	m := &Mask{
		t:        t,
		failed:   make(map[LinkKey]struct{}, len(failed)),
		failedAt: make([]HopSet, t.N()),
	}
	for _, k := range failed {
		if !t.hasEdge(k) {
			panic(fmt.Sprintf("topology %s: masked edge %v does not exist", t.Name, k))
		}
		m.failed[k] = struct{}{}
	}
	for n, edges := range t.adj {
		for i, e := range edges {
			if _, bad := m.failed[LinkKey{From: NodeID(n), To: e.To, Dir: e.Dir}]; bad {
				m.failedAt[n] |= 1 << i
			}
		}
	}
	dist, from, to := t.bfs(m.failedAt, nil)
	if dist == nil {
		panic(fmt.Sprintf("topology %s: failure set partitions the machine (node %d unreachable from %d)",
			t.Name, to, from))
	}
	m.dist = dist
	m.next = make([]HopSet, t.N()*t.N())
	t.fillNext(m.next, m.failedAt, dist, dist)
	return m
}

// hasEdge reports whether k names a real directed edge.
func (t *Topology) hasEdge(k LinkKey) bool {
	if k.From < 0 || int(k.From) >= t.N() {
		return false
	}
	for _, e := range t.adj[k.From] {
		if e.To == k.To && e.Dir == k.Dir {
			return true
		}
	}
	return false
}

// Failed reports whether the directed edge k is in the failure set.
func (m *Mask) Failed(k LinkKey) bool {
	_, bad := m.failed[k]
	return bad
}

// FailedCount reports the number of failed directed edges.
func (m *Mask) FailedCount() int { return len(m.failed) }

// Dist reports the minimal hop count from a to b over the surviving graph.
// It is never smaller than the healthy distance, and exceeds it exactly
// when every healthy minimal path crosses a failed edge.
func (m *Mask) Dist(a, b NodeID) int { return int(m.dist[a][b]) }

// AppendNextHopsMasked appends cur's next hops toward dst over the
// surviving graph onto hops and returns the extended slice — the degraded
// counterpart of AppendNextHops, with the same deterministic adjacency
// order (N, S, E, W, Shuffle) and the same scratch-reuse contract. A nil
// mask is the healthy fabric. Every returned hop reduces the masked
// distance by exactly one, so packets following the mask make monotone
// progress and cannot livelock, even though the path may be non-minimal in
// the healthy metric. Shuffle-budget policies do not compose with a mask:
// a degraded fabric may use every surviving link (see network.Params).
func (t *Topology) AppendNextHopsMasked(hops []Edge, cur, dst NodeID, m *Mask) []Edge {
	return t.appendSet(hops, cur, t.NextHopSetMasked(cur, dst, m))
}

// NextHopSetMasked reports the edges AppendNextHopsMasked appends, as a
// set over cur's adjacency: one read of the mask's table (the healthy
// table when m is nil).
func (t *Topology) NextHopSetMasked(cur, dst NodeID, m *Mask) HopSet {
	if m == nil {
		return t.nextHopSet(cur, dst)
	}
	if m.t != t {
		panic("topology: mask built for a different topology")
	}
	if cur == dst {
		panic("topology: NextHopsMasked with cur == dst")
	}
	return m.next[int(dst)*t.N()+int(cur)]
}

// NextHopsMasked is the allocating convenience form of
// AppendNextHopsMasked.
func (t *Topology) NextHopsMasked(cur, dst NodeID, m *Mask) []Edge {
	return t.AppendNextHopsMasked(nil, cur, dst, m)
}

// ConnectedWithout reports whether the topology stays connected after
// removing the given directed edges — the non-panicking counterpart of
// NewMask's partition check. Auto-quarantine (network) probes with the
// candidate failure set before committing: a link whose removal would
// partition the machine is kept in lossy service instead of quarantined,
// because a retransmitting link still delivers and an amputated cut set
// does not. Callers pass symmetric sets (both directions of each physical
// link, as FailLink builds them), for which a single BFS from node 0 is
// exact.
func (t *Topology) ConnectedWithout(failed []LinkKey) bool {
	n := t.N()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	queue := make([]NodeID, 0, n)
	seen[0] = true
	queue = append(queue, 0)
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
	edges:
		for _, e := range t.adj[cur] {
			for _, k := range failed {
				if k.From == cur && k.To == e.To && k.Dir == e.Dir {
					continue edges
				}
			}
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return len(queue) == n
}

// Links enumerates every directed edge of the topology in deterministic
// (node, adjacency) order — the iteration space for exhaustive
// failure-injection tests and for fault-sweep experiment planning.
func (t *Topology) Links() []LinkKey {
	var out []LinkKey
	for n := range t.adj {
		for _, e := range t.adj[n] {
			out = append(out, LinkKey{From: NodeID(n), To: e.To, Dir: e.Dir})
		}
	}
	return out
}
