package topology

import "fmt"

// NewTorus builds the standard GS1280 interconnect: a W x H
// two-dimensional torus (Fig 3 of the paper). Link classes follow the
// physical packaging: the two CPUs of a dual-processor module are vertical
// neighbors (rows 2k and 2k+1), other in-grid links are backplane traces,
// and wrap-around links are cables. When a dimension has size 2 the "wrap"
// link duplicates the direct link, giving the redundant double connection
// the paper's shuffle re-cabling exploits.
func NewTorus(w, h int) *Topology {
	t := newGrid(fmt.Sprintf("torus-%dx%d", w, h), w, h)
	t.wireTorus()
	t.finish()
	return t
}

// NewShuffle builds the §4.1 "shuffle" interconnect: a torus whose
// redundant or wrap-around vertical cables are re-routed toward the
// furthest nodes (Figs 16/17). The re-cabling conserves the link count — it
// is literally "a simple swap of the cables".
//
// For H == 2 this is exactly the paper's 8-CPU recabling: the duplicate
// North/South link of each column becomes a chord of length W/2 within its
// row. For taller machines the vertical wrap cable is twisted to land W/2
// columns away — (x, H-1) connects to (x+W/2, 0) — which reproduces the
// paper's Table 1 exactly for 4x4 (1.067 average, 1.333 worst-case gain)
// and the 1.5x worst-case gain of the rectangular sizes; `gsbench -run
// tab1` prints the full paper-vs-model comparison.
func NewShuffle(w, h int) *Topology {
	if w%2 != 0 {
		panic("topology: shuffle requires even width")
	}
	t := newGrid(fmt.Sprintf("shuffle-%dx%d", w, h), w, h)
	t.wireShuffle()
	t.finish()
	return t
}

func newGrid(name string, w, h int) *Topology {
	if w < 1 || h < 1 {
		panic(fmt.Sprintf("topology: invalid grid %dx%d", w, h))
	}
	if w*h > 4096 {
		panic(fmt.Sprintf("topology: grid %dx%d too large", w, h))
	}
	t := &Topology{Name: name, W: w, H: h}
	// Every wiring here gives a node at most four ports, so the rows share
	// one backing array; a capped window makes a fifth port append into a
	// fresh array instead of a neighbor's row.
	edges := make([]Edge, 4*w*h)
	t.adj = make([][]Edge, w*h)
	for i := range t.adj {
		t.adj[i] = edges[4*i : 4*i : 4*i+4]
	}
	return t
}

// wireTorus adds the standard torus links.
func (t *Topology) wireTorus() {
	t.wireHorizontal()
	for x := 0; x < t.W; x++ {
		for y := 0; y+1 < t.H; y++ {
			t.addLink(t.Node(Coord{x, y}), t.Node(Coord{x, y + 1}), South, verticalClass(y))
		}
		if t.H >= 2 {
			// Wrap-around cable, including the redundant second link of an
			// H == 2 column.
			t.addLink(t.Node(Coord{x, t.H - 1}), t.Node(Coord{x, 0}), South, CableLink)
		}
	}
}

// wireShuffle adds torus links except the vertical wrap cables, which are
// re-routed toward the furthest nodes.
func (t *Topology) wireShuffle() {
	t.wireHorizontal()
	for x := 0; x < t.W; x++ {
		for y := 0; y+1 < t.H; y++ {
			t.addLink(t.Node(Coord{x, y}), t.Node(Coord{x, y + 1}), South, verticalClass(y))
		}
	}
	if t.H == 2 {
		// The paper's 8-CPU scheme: the W redundant vertical cables become
		// W/2 chords in each of the two rows.
		for y := 0; y < 2; y++ {
			for x := 0; x < t.W/2; x++ {
				t.addLink(t.Node(Coord{x, y}), t.Node(Coord{x + t.W/2, y}), Shuffle, CableLink)
			}
		}
		return
	}
	// Taller grids: twist each vertical wrap cable to land W/2 columns
	// away, giving wrap traffic free X progress toward far nodes.
	for x := 0; x < t.W; x++ {
		t.addLink(t.Node(Coord{x, t.H - 1}), t.Node(Coord{x + t.W/2, 0}), Shuffle, CableLink)
	}
}

func (t *Topology) wireHorizontal() {
	for y := 0; y < t.H; y++ {
		for x := 0; x+1 < t.W; x++ {
			t.addLink(t.Node(Coord{x, y}), t.Node(Coord{x + 1, y}), East, BoardLink)
		}
		if t.W >= 2 {
			t.addLink(t.Node(Coord{t.W - 1, y}), t.Node(Coord{0, y}), East, CableLink)
		}
	}
}

// verticalClass reports the link class of the vertical link below row y:
// within a module pair (rows 2k and 2k+1) it is a module link, otherwise a
// backplane trace.
func verticalClass(y int) LinkClass {
	if y%2 == 0 {
		return ModuleLink
	}
	return BoardLink
}

func (t *Topology) finish() {
	t.sortAdjacency()
	for n, edges := range t.adj {
		if len(edges) > maxDegree {
			panic(fmt.Sprintf("topology %s: node %d has %d ports, more than a HopSet holds", t.Name, n, len(edges)))
		}
		for _, e := range edges {
			t.shuffle = t.shuffle || e.Dir == Shuffle
		}
	}
	t.computeDistances()
}

// NewMesh builds a W x H mesh — a torus without wrap-around links. The
// paper's §2 deadlock discussion distinguishes the two: intra-dimensional
// deadlock "arises because the network is a torus, not a mesh". The mesh
// is provided for such comparisons; the GS1280 products always shipped
// tori.
func NewMesh(w, h int) *Topology {
	t := newGrid(fmt.Sprintf("mesh-%dx%d", w, h), w, h)
	for y := 0; y < h; y++ {
		for x := 0; x+1 < w; x++ {
			t.addLink(t.Node(Coord{x, y}), t.Node(Coord{x + 1, y}), East, BoardLink)
		}
	}
	for x := 0; x < w; x++ {
		for y := 0; y+1 < h; y++ {
			t.addLink(t.Node(Coord{x, y}), t.Node(Coord{x, y + 1}), South, verticalClass(y))
		}
	}
	t.finish()
	return t
}
