// Package topology models the interconnect graphs of the systems in the
// paper: the GS1280's two-dimensional torus (Fig 3), the "shuffle"
// re-cabling of §4.1 (Figs 16/17, Table 1), and the analytic metrics the
// paper reports for them (average hops, worst-case hops, bisection width).
//
// The package is pure graph math — no simulated time — so the network
// simulator and the analytic Table 1 reproduction share one source of truth
// for distances and minimal next-hop sets.
package topology

import (
	"fmt"
	"math/bits"
)

// NodeID identifies a CPU in the machine, numbered row-major: node
// y*W + x sits at column x, row y.
type NodeID int

// Coord is a node position in the grid.
type Coord struct{ X, Y int }

// Dir labels the physical port a link leaves through. The EV7 router has
// four inter-processor ports; Shuffle is carried on a re-cabled
// North/South port (§4.1 of the paper).
type Dir int

const (
	North Dir = iota
	South
	East
	West
	Shuffle
	numDirs
)

var dirNames = [...]string{"N", "S", "E", "W", "X"}

func (d Dir) String() string {
	if d < 0 || int(d) >= len(dirNames) {
		return fmt.Sprintf("Dir(%d)", int(d))
	}
	return dirNames[d]
}

// LinkClass captures the physical medium of a link, which sets its wire
// latency. The paper's Fig 13 shows 1-hop latencies of 139 ns to the module
// partner, ~145 ns across the backplane, and 154 ns over a cable.
type LinkClass int

const (
	// ModuleLink joins the two CPUs on one dual-processor module.
	ModuleLink LinkClass = iota
	// BoardLink is a backplane trace between modules in a drawer.
	BoardLink
	// CableLink is an inter-drawer or wrap-around cable.
	CableLink
)

func (c LinkClass) String() string {
	switch c {
	case ModuleLink:
		return "module"
	case BoardLink:
		return "board"
	case CableLink:
		return "cable"
	}
	return fmt.Sprintf("LinkClass(%d)", int(c))
}

// Edge is a directed link from one node to a neighbor.
type Edge struct {
	To    NodeID
	Dir   Dir
	Class LinkClass
}

// Topology is an immutable interconnect graph with precomputed all-pairs
// distances and minimal next-hop sets. Construct one with NewTorus,
// NewShuffle or NewMesh.
type Topology struct {
	Name string
	W, H int
	adj  [][]Edge
	dist [][]int16
	// next[dst*N+cur] is cur's minimal next-hop set toward dst, filled by
	// the distance BFS (see bfs). Rows run by destination, so one packet's
	// lookups along its path share a row.
	next []HopSet
	// shuffle reports whether any link is a shuffle link; without one,
	// every routing policy is the healthy table.
	shuffle bool
	// distBudget and nextBudget hold the shuffle-budget-restricted
	// distance and next-hop tables, built lazily by ensurePolicyTables:
	// index 0 forbids shuffle links, index b allows them during the first
	// b hops.
	distBudget [][][]int16
	nextBudget [][]HopSet
}

// HopSet is a set of one node's ports, as a bit mask over its adjacency:
// bit i stands for Neighbors(n)[i]. Adjacency is sorted N, S, E, W,
// Shuffle, so the lowest set bit is the dimension-order ("escape") hop, and
// walking the bits upward visits ports in the router's scan order.
type HopSet uint8

// maxDegree is the most ports a HopSet can name.
const maxDegree = 8

// First reports the index of the lowest port in s (8 when s is empty).
func (s HopSet) First() int { return bits.TrailingZeros8(uint8(s)) }

// N reports the number of nodes.
func (t *Topology) N() int { return t.W * t.H }

// Coord reports the grid position of n.
func (t *Topology) Coord(n NodeID) Coord {
	return Coord{X: int(n) % t.W, Y: int(n) / t.W}
}

// Node reports the node at position c (coordinates taken modulo the grid).
func (t *Topology) Node(c Coord) NodeID {
	x := ((c.X % t.W) + t.W) % t.W
	y := ((c.Y % t.H) + t.H) % t.H
	return NodeID(y*t.W + x)
}

// Neighbors reports the outgoing edges of n. Callers must not mutate the
// returned slice.
func (t *Topology) Neighbors(n NodeID) []Edge { return t.adj[n] }

// Dist reports the minimal hop count from a to b.
func (t *Topology) Dist(a, b NodeID) int { return int(t.dist[a][b]) }

// NextHops reports the edges out of cur that lie on a minimal path to dst.
// The result is ordered deterministically (by the adjacency order, which is
// N, S, E, W, Shuffle); the first entry is the dimension-order ("escape")
// choice used by deadlock-free virtual channels, the full set is what the
// adaptive channel may choose between. NextHops panics if cur == dst.
func (t *Topology) NextHops(cur, dst NodeID) []Edge {
	return t.AppendNextHops(nil, cur, dst)
}

// AppendNextHops appends cur's minimal next hops toward dst onto hops and
// returns the extended slice. Router hot paths pass a reused scratch
// slice (hops[:0]) so per-hop routing does not allocate.
func (t *Topology) AppendNextHops(hops []Edge, cur, dst NodeID) []Edge {
	return t.appendSet(hops, cur, t.nextHopSet(cur, dst))
}

// nextHopSet reports cur's minimal next hops toward dst as a set over its
// adjacency: one table read. It panics if cur == dst.
func (t *Topology) nextHopSet(cur, dst NodeID) HopSet {
	if cur == dst {
		panic("topology: NextHops with cur == dst")
	}
	return t.next[int(dst)*t.N()+int(cur)]
}

// appendSet appends the edges of cur that set names, in adjacency order.
func (t *Topology) appendSet(hops []Edge, cur NodeID, set HopSet) []Edge {
	edges := t.adj[cur]
	for ; set != 0; set &= set - 1 {
		hops = append(hops, edges[set.First()])
	}
	return hops
}

// addLink inserts an undirected link (two directed edges) between a and b.
// dirAB is the port a uses to reach b; the reverse edge uses the opposite
// port, except Shuffle links which are Shuffle in both directions.
func (t *Topology) addLink(a, b NodeID, dirAB Dir, class LinkClass) {
	t.adj[a] = append(t.adj[a], Edge{To: b, Dir: dirAB, Class: class})
	t.adj[b] = append(t.adj[b], Edge{To: a, Dir: opposite(dirAB), Class: class})
}

func opposite(d Dir) Dir {
	switch d {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	default:
		return Shuffle
	}
}

// computeDistances fills the all-pairs distance table and the minimal
// next-hop sets with one BFS per node.
func (t *Topology) computeDistances() {
	n := t.N()
	t.next = make([]HopSet, n*n)
	dist, from, to := t.bfs(nil, t.next)
	if dist == nil {
		panic(fmt.Sprintf("topology %s: node %d unreachable from %d", t.Name, to, from))
	}
	t.dist = dist
}

// bfs computes all-pairs hop counts over the edges excl leaves in: bit i
// of excl[n] drops Neighbors(n)[i], and a nil excl drops nothing. The rows
// share one backing array and the queue is indexed from its head, so a
// call allocates three times whatever the graph's size. When some node is
// unreachable, bfs returns a nil table with the first such pair (node to
// unreachable from node from); each caller panics with its own message.
//
// A non-nil next is filled as well: next[src*N+cur] becomes cur's minimal
// next-hop set toward src. This needs the kept edges to be undirected.
// Then the BFS from src gives every node's distance to src as well as from
// it, and every node one step closer to src is labelled before cur is
// popped, so cur's own edge scan yields its set with no second pass.
// addLink wires both directions of every link, so the healthy graph
// qualifies; a Mask's failure set may be one-way, so it fills its own
// table from the finished rows instead (fillNext).
func (t *Topology) bfs(excl, next []HopSet) (dist [][]int16, from, to int) {
	n := t.N()
	cells := make([]int16, n*n) //lint:alloc-ok one-time table build per topology or mask
	dist = make([][]int16, n)   //lint:alloc-ok one-time table build per topology or mask
	queue := make([]NodeID, n)  //lint:alloc-ok one-time table build per topology or mask
	for src := 0; src < n; src++ {
		d := cells[src*n : (src+1)*n : (src+1)*n]
		for i := range d {
			d[i] = -1
		}
		d[src] = 0
		queue[0] = NodeID(src)
		tail := 1
		for head := 0; head < tail; head++ {
			cur := queue[head]
			var skip, set HopSet
			if excl != nil {
				skip = excl[cur]
			}
			here := d[cur]
			edges := t.adj[cur]
			for i := range edges {
				to := edges[i].To
				switch {
				case skip&(1<<i) != 0:
				case d[to] == -1:
					d[to] = here + 1
					queue[tail] = to
					tail++
				case d[to] == here-1:
					set |= 1 << i
				}
			}
			if next != nil {
				next[src*n+int(cur)] = set
			}
		}
		if tail < n {
			for i, v := range d {
				if v == -1 {
					return nil, src, i
				}
			}
		}
		dist[src] = d
	}
	return dist, 0, 0
}

// fillNext sets next[dst*N+cur] to the ports of cur, outside excl, whose
// far end is one step closer to dst: here[cur][dst]-1 == there[far][dst].
// It reads only finished rows, so it assumes nothing about link symmetry.
func (t *Topology) fillNext(next, excl []HopSet, here, there [][]int16) {
	n := t.N()
	for cur, edges := range t.adj {
		mine := here[cur]
		for i, e := range edges {
			if excl != nil && excl[cur]&(1<<i) != 0 {
				continue
			}
			far := there[e.To]
			for dst, d := range mine {
				if far[dst] == d-1 {
					next[dst*n+cur] |= 1 << i
				}
			}
		}
	}
}

// sortAdjacency orders each node's edges N, S, E, W, Shuffle so that
// NextHops and the router's arbitration are deterministic.
func (t *Topology) sortAdjacency() {
	for n := range t.adj {
		edges := t.adj[n]
		for i := 1; i < len(edges); i++ {
			for j := i; j > 0 && edges[j].Dir < edges[j-1].Dir; j-- {
				edges[j], edges[j-1] = edges[j-1], edges[j]
			}
		}
	}
}
