package coherence

import (
	"math/rand"
	"testing"
	"unsafe"
)

// dirTableSlots is the slot space of the largest address map in use: 64 MB
// regions, striped, so a home serves 2 M slots and the upper half belongs
// to its partner's region.
const dirTableSlots = 2 * (64 << 20) / 64

// dirTableMix returns a seeded sequence of slots mixing the footprints the
// directory serves: streaming runs, uniformly random slots, slots on both
// sides of the dense-window boundary, and runs in the striped upper half.
// Slots repeat, so lookups of existing entries interleave with inserts.
func dirTableMix(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	var slots []int64
	for len(slots) < n {
		switch rng.Intn(4) {
		case 0: // a streaming run anywhere
			start, length := rng.Int63n(dirTableSlots), 1+rng.Intn(300)
			for i := 0; i < length && start+int64(i) < dirTableSlots; i++ {
				slots = append(slots, start+int64(i))
			}
		case 1: // random slots
			for i := 0; i < 50; i++ {
				slots = append(slots, rng.Int63n(dirTableSlots))
			}
		case 2: // across the dense boundary (32767/32768)
			for i := 0; i < 20; i++ {
				slots = append(slots, dirDenseSlots-10+rng.Int63n(20))
			}
		default: // a run in the striped upper half
			start := dirTableSlots/2 + rng.Int63n(dirTableSlots/2-64)
			for i := int64(0); i < 64; i++ {
				slots = append(slots, start+i)
			}
		}
	}
	return slots
}

// TestDirTableMatchesMapReference runs dirTable against the
// map[int64]*dirEntry it replaced. get must create each slot's entry once
// and return that same pointer for the slot ever after, through every
// spill-table grow; find must agree with get without allocating and
// return nil for a slot get never created; forEach must visit each
// created slot exactly once.
func TestDirTableMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		var tab dirTable
		ref := map[int64]*dirEntry{}
		owner := map[*dirEntry]int64{}
		grows := 0
		checkAll := func() {
			for slot, want := range ref {
				if got := tab.find(slot); got != want {
					t.Fatalf("seed %d: find(%d) = %p, want %p", seed, slot, got, want)
				}
				if got := tab.get(slot); got != want {
					t.Fatalf("seed %d: get(%d) = %p, want %p", seed, slot, got, want)
				}
			}
		}
		for _, slot := range dirTableMix(seed, 200000) {
			want, created := ref[slot]
			if !created {
				// Absent from the spill, find is nil; in the dense window
				// it may see the untouched zero entry of an allocated page.
				if e := tab.find(slot); e != nil && (slot >= dirDenseSlots || e.used) {
					t.Fatalf("seed %d: find(%d) before get = %p (used %v)", seed, slot, e, e.used)
				}
			}
			cells := len(tab.spill.cells)
			e := tab.get(slot)
			if created && e != want {
				t.Fatalf("seed %d: get(%d) moved the entry from %p to %p", seed, slot, want, e)
			}
			if !created {
				if other, taken := owner[e]; taken {
					t.Fatalf("seed %d: get(%d) returned slot %d's entry", seed, slot, other)
				}
				if e.used || e.value != 0 {
					t.Fatalf("seed %d: fresh entry for slot %d is not zero", seed, slot)
				}
				e.used = true // as homeReceive marks it
				e.value = uint64(slot)
				ref[slot] = e
				owner[e] = slot
			}
			if e.value != uint64(slot) {
				t.Fatalf("seed %d: slot %d's entry holds slot %d's value", seed, slot, e.value)
			}
			if len(tab.spill.cells) != cells {
				grows++
				checkAll()
			}
		}
		if grows < 5 {
			t.Fatalf("seed %d: the spill table grew only %d times", seed, grows)
		}
		checkAll()

		seen := map[int64]bool{}
		tab.forEach(func(slot int64, e *dirEntry) {
			if seen[slot] {
				t.Fatalf("seed %d: forEach visited slot %d twice", seed, slot)
			}
			seen[slot] = true
			if ref[slot] != e {
				t.Fatalf("seed %d: forEach gave slot %d entry %p, want %p", seed, slot, e, ref[slot])
			}
		})
		if len(seen) != len(ref) {
			t.Fatalf("seed %d: forEach visited %d slots, want %d", seed, len(seen), len(ref))
		}

		probe := dirTableMix(seed+100, 1000)
		if allocs := testing.AllocsPerRun(10, func() {
			for _, slot := range probe {
				tab.find(slot)
			}
		}); allocs != 0 {
			t.Errorf("seed %d: find allocates %.1f times per %d lookups", seed, allocs, len(probe))
		}
	}
}

// TestDirSpillKeepsRunsInLines is the spill table's layout property: a
// streaming footprint of N consecutive slots occupies at most N/8 + N/64
// distinct 64-byte lines of cells, so a lookup walks the cell array in
// order instead of missing the cache on every slot. A hash that scatters
// consecutive slots across the table fails it.
func TestDirSpillKeepsRunsInLines(t *testing.T) {
	const n = 64 << 10
	var sp dirSpill
	start := int64(dirDenseSlots + 3) // not run-aligned
	for slot := start; slot < start+n; slot++ {
		sp.get(slot)
	}
	lines := map[uintptr]bool{}
	for i := range sp.cells {
		if sp.cells[i].key != 0 {
			lines[uintptr(unsafe.Pointer(&sp.cells[i]))/64] = true
		}
	}
	if limit := n/8 + n/64; len(lines) > limit {
		t.Fatalf("%d consecutive slots occupy %d lines of cells, want at most %d", n, len(lines), limit)
	}
}
