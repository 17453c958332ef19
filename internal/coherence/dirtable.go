package coherence

import "math"

// dirTable holds one home's directory entries, indexed by the dense slot
// AddressMap.HomeSlot assigns to each line the home serves. It replaces
// the former map[int64]*dirEntry, whose hash-and-box cost sat on the
// critical path of every remote miss (the home-node traversal the paper's
// latency figures hinge on).
//
// Layout: the first dirDenseSlots slots — the region prefix where the
// paper's latency and bandwidth probes place their datasets — live in
// directly indexed pages, allocated lazily in dirPageLines-sized blocks,
// so the common lookup is two array indexings. Slots beyond the dense
// window (large or uniformly random footprints, e.g. GUPS over a 64 MB
// region) fall back to an open-addressed spill table: entries there are
// pooled in fixed-size slabs and never individually allocated, and since
// directory entries are never deleted the probe loop needs no tombstones.
// Either way an entry, once created, has a stable address for the lifetime
// of the system, which lets in-flight transactions hold *dirEntry across
// event boundaries.
type dirTable struct {
	pages [dirDensePages]*[dirPageLines]dirEntry
	spill dirSpill
}

const (
	// dirPageLines is the dense-page granule; 4096 lines cover 256 KB of
	// region per page at the GS1280's 64-byte lines.
	dirPageShift = 12
	dirPageLines = 1 << dirPageShift
	// dirDensePages bounds the directly indexed window to the first 32 K
	// slots (2 MB of region) per home; beyond that, density can no longer
	// be assumed and the spill table is the better trade.
	dirDensePages = 8
	dirDenseSlots = dirDensePages * dirPageLines
)

// get returns the entry at slot, creating it if needed. A freshly created
// entry is zero-valued, which is exactly the dirIdle "memory owns the
// line" state, so creation needs no initialization.
func (t *dirTable) get(slot int64) *dirEntry {
	if slot < dirDenseSlots {
		pg := t.pages[slot>>dirPageShift]
		if pg == nil {
			pg = new([dirPageLines]dirEntry) //lint:alloc-ok lazy page fault, once per 256-line window'
			t.pages[slot>>dirPageShift] = pg
		}
		return &pg[slot&(dirPageLines-1)]
	}
	return t.spill.get(slot)
}

// find returns the entry at slot or nil; it never allocates. Quiesced-state
// inspection (LineValue, invariant checks) uses it.
func (t *dirTable) find(slot int64) *dirEntry {
	if slot < dirDenseSlots {
		pg := t.pages[slot>>dirPageShift]
		if pg == nil {
			return nil
		}
		return &pg[slot&(dirPageLines-1)]
	}
	return t.spill.find(slot)
}

// forEach visits every entry that has been part of a transaction, with
// its slot. Dense entries whose used flag was never set are skipped:
// they are lines that were never referenced, exactly the lines the old
// map never held — so invariant checking covers the identical set.
func (t *dirTable) forEach(visit func(slot int64, e *dirEntry)) {
	for p, pg := range t.pages {
		if pg == nil {
			continue
		}
		for i := range pg {
			if e := &pg[i]; e.used {
				visit(int64(p)*dirPageLines+int64(i), e)
			}
		}
	}
	t.spill.forEach(visit)
}

// dirSpill is the sparse-overflow fallback: open addressing with linear
// probing over cells that pair a slot's key with its entry's slab index,
// with entries pooled in fixed slabs.
//
// The hash follows the address stream. spillHome hashes a slot's aligned
// run of spillRun slots and keeps the slot's offset within the run, so
// the run's slots land in adjacent cells — one 64-byte line of the cell
// array — and, because slabs hand out entries in first-touch order, in
// adjacent entries too. A streaming footprint (a STREAM triad far beyond
// the dense window) then walks both arrays in order instead of taking a
// cache miss on each, and a random slot (GUPS) still costs one cell and
// one entry.
type dirSpill struct {
	cells []dirCell
	// slabs allocate entries spillSlabSize at a time; an entry's address
	// never changes once handed out.
	slabs []*[spillSlabSize]dirEntry
	n     int
}

// dirCell is one probe position; a probe reads key and index in one load.
type dirCell struct {
	key uint32 // slot+1, so the zero value means "empty"
	idx uint32 // slab position of the slot's entry
}

const (
	spillSlabSize = 256
	// spillRun slots — 8 cells of 8 bytes, one 64-byte line — share a
	// hash (see dirSpill).
	spillRunShift = 3
	spillRun      = 1 << spillRunShift
	// maxDirSlots bounds a home's slot space: a cell keys slot+1 in 32
	// bits, so NewSystem rejects any address map with more slots.
	maxDirSlots = math.MaxUint32
)

// spillHome is slot's first probe position in a table of mask+1 cells.
func spillHome(slot int64, mask uint64) uint64 {
	run := uint64(slot) >> spillRunShift
	return ((run*0x9E3779B97F4A7C15)>>32<<spillRunShift | uint64(slot)&(spillRun-1)) & mask
}

func (sp *dirSpill) entryAt(i uint32) *dirEntry {
	return &sp.slabs[i>>8][i&(spillSlabSize-1)]
}

func (sp *dirSpill) find(slot int64) *dirEntry {
	if len(sp.cells) == 0 {
		return nil
	}
	key := uint32(slot + 1)
	mask := uint64(len(sp.cells) - 1)
	for h := spillHome(slot, mask); ; h = (h + 1) & mask {
		c := sp.cells[h]
		if c.key == key {
			return sp.entryAt(c.idx)
		}
		if c.key == 0 {
			return nil
		}
	}
}

func (sp *dirSpill) get(slot int64) *dirEntry {
	if len(sp.cells) == 0 {
		sp.grow()
	}
	key := uint32(slot + 1)
	for {
		mask := uint64(len(sp.cells) - 1)
		h := spillHome(slot, mask)
		for {
			c := sp.cells[h]
			if c.key == key {
				return sp.entryAt(c.idx)
			}
			if c.key == 0 {
				break
			}
			h = (h + 1) & mask
		}
		// Not present: grow only now, on an actual insert. Growing on the
		// way in — as this function originally did — meant a table whose
		// population sat exactly at the load-factor threshold paid a full
		// rehash on its next lookup of an existing key, a multi-megabyte
		// allocation spike in the middle of a steady-state measurement
		// window (the read-miss benchmarks' stray bytes/op).
		if sp.n >= len(sp.cells)*3/4 {
			sp.grow()
			continue // re-probe in the grown table
		}
		if sp.n&(spillSlabSize-1) == 0 && sp.n>>8 == len(sp.slabs) {
			//lint:alloc-ok slab-pool refill, amortized across spill inserts
			sp.slabs = append(sp.slabs, new([spillSlabSize]dirEntry))
		}
		i := uint32(sp.n)
		sp.n++
		sp.cells[h] = dirCell{key: key, idx: i}
		return sp.entryAt(i)
	}
}

// grow doubles the cell array (minimum 64 cells) and rehashes. The slabs
// — and therefore entry addresses — are untouched.
func (sp *dirSpill) grow() {
	newCap := 2 * len(sp.cells)
	if newCap == 0 {
		newCap = 64
	}
	old := sp.cells
	sp.cells = make([]dirCell, newCap) //lint:alloc-ok rehash on insert only, amortized doubling
	mask := uint64(newCap - 1)
	for _, c := range old {
		if c.key == 0 {
			continue
		}
		h := spillHome(int64(c.key)-1, mask)
		for sp.cells[h].key != 0 {
			h = (h + 1) & mask
		}
		sp.cells[h] = c
	}
}

func (sp *dirSpill) forEach(visit func(slot int64, e *dirEntry)) {
	for _, c := range sp.cells {
		if c.key != 0 {
			visit(int64(c.key)-1, sp.entryAt(c.idx))
		}
	}
}
