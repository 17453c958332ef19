// Package memctrl models one 21364 memory controller (a "Zbox" in the
// paper's terminology): a Direct Rambus (RDRAM) controller with a fixed
// data-bus bandwidth and an open-page policy. Each EV7 integrates two; the
// pair gives the node its 12.3 GB/s peak memory bandwidth (§2).
//
// The page model is what produces Fig 5 of the paper: accesses that land in
// an already-open RDRAM page complete at the CAS latency (~80 ns load-to-use
// in total), while accesses that miss the open page pay precharge+activate
// (~130 ns in total). Small strides keep hitting the same 2 KB page; strides
// past the page size make every access a page miss.
package memctrl

import (
	"gs1280/internal/sim"
)

// Params configures one controller.
type Params struct {
	// Bandwidth is the data-bus bandwidth in bytes/second. Each of the two
	// Zboxes drives four RDRAM channels of 2 bytes at 767 MHz data rate:
	// 6.15 GB/s.
	Bandwidth int64
	// Banks is the number of independent RDRAM banks (each holding one
	// open page). The paper notes up to 2048 pages can be open per node,
	// i.e. 1024 per controller.
	Banks int
	// PageBytes is the open-page (row) size.
	PageBytes int64
	// HitLatency is the access latency when the page is open (CAS).
	HitLatency sim.Time
	// MissLatency is the access latency when the page must be closed and
	// a new row activated (precharge + activate + CAS).
	MissLatency sim.Time
	// LineBytes is the transfer size of one access.
	LineBytes int
	// MaxOpenPages bounds pages held open per controller. The paper's §2
	// quotes "up to 2048 pages open simultaneously" machine-wide; per
	// controller the sustainable number is small, and it is what turns
	// large-stride access into closed-page access (Fig 5).
	MaxOpenPages int
	// CritAware defers background accesses (victim and sharing
	// writebacks, issued via AccessBgAt) behind the bus backlog demand
	// traffic would add while they wait, prioritizing stall-path reads.
	// The deferral adapts to the measured queue depth: an EWMA of the
	// backlog observed at each access stands in for "the demand arriving
	// while the writeback waits", clamped to twice the instantaneous
	// backlog so a transient spike cannot starve writebacks. Off by
	// default; with it off — or with an idle bus, or with only demand
	// traffic — scheduling is bit-identical to plain FIFO.
	CritAware bool
}

// DefaultParams returns the GS1280 Zbox calibration: together with the
// 23 ns core/L2-miss overhead of the machine model this lands the paper's
// 83 ns open-page and ~130 ns closed-page local dependent-load latencies.
func DefaultParams() Params {
	return Params{
		Bandwidth:    6_150_000_000,
		Banks:        1024,
		PageBytes:    2048,
		HitLatency:   60 * sim.Nanosecond,
		MissLatency:  107 * sim.Nanosecond,
		LineBytes:    64,
		MaxOpenPages: 16,
	}
}

// Controller is one Zbox. It is driven entirely from the simulation engine
// goroutine; no locking.
type Controller struct {
	eng    *sim.Engine
	params Params
	bus    *sim.Resource
	// openRow[bank] is the row currently open in the bank, or -1.
	openRow []int64
	// openRing is a fixed-capacity circular FIFO of the banks with open
	// pages, in opening order; at MaxOpenPages the oldest page is closed.
	// A head index walks the fixed array instead of re-slicing, so a
	// stride sweep that opens millions of pages never reallocates it (the
	// old `ring = ring[1:]` + append pattern leaked an array realloc every
	// few hundred page-opens — the read-miss benchmarks' stray bytes/op).
	openRing []int
	ringHead int
	ringLen  int
	// avgBacklog is an EWMA (gain 1/4) of the bus queue delay observed at
	// each access — the measured demand pressure CritAware writebacks
	// yield to. It decays to exactly zero on an idle bus, so the
	// idle-bus identity reduction survives any history. Not statistics:
	// ResetStats leaves it alone, because resetting it would change
	// subsequent scheduling.
	avgBacklog sim.Time

	reads, writes, pageHits, pageMisses uint64
}

// New returns a controller with all pages closed.
func New(eng *sim.Engine, params Params) *Controller {
	if params.Bandwidth <= 0 || params.Banks <= 0 || params.PageBytes <= 0 {
		panic("memctrl: invalid params")
	}
	if params.MaxOpenPages <= 0 {
		panic("memctrl: need at least one open page")
	}
	c := &Controller{
		eng:      eng,
		params:   params,
		bus:      sim.NewResource(eng),
		openRow:  make([]int64, params.Banks),
		openRing: make([]int, params.MaxOpenPages),
	}
	for i := range c.openRow {
		c.openRow[i] = -1
	}
	return c
}

// Params reports the controller's configuration.
func (c *Controller) Params() Params { return c.params }

// AccessAt performs one line read or write at addr and returns the
// absolute completion time, leaving scheduling to the caller: the data has
// been delivered (read) or committed (write) at that instant. Callers
// carry their own transaction state (the coherence layer's home-side
// directory reads and victim writes) and arm their record's embedded timer
// for the returned instant, so nothing on this path touches the heap.
//
// Latency = queueing on the data bus + page hit/miss access time. The bus
// is occupied for the line transfer time, bounding sustained bandwidth at
// Params.Bandwidth.
//
//gs:noalloc guard=TestCoherenceFastPathAllocs
func (c *Controller) AccessAt(addr int64, write bool) sim.Time {
	return c.schedule(addr, write, false)
}

// AccessBgAt is AccessAt for background traffic — writebacks no
// instruction is waiting on. With Params.CritAware off it is exactly
// AccessAt. With it on, the access yields the bus: it acquires at
// now + backlog + min(avgBacklog, 2x backlog) instead of joining the
// backlog's tail, modeling the demand accesses that historically arrive
// during such a wait being scheduled ahead of it once. The deferral is a
// pure function of controller state, so AccessBgAt stays synchronous,
// deterministic and allocation-free like AccessAt — and degenerates to
// it whenever the bus is idle or every access is demand.
//
//gs:noalloc guard=TestAccessBgAtZeroAlloc
func (c *Controller) AccessBgAt(addr int64, write bool) sim.Time {
	return c.schedule(addr, write, c.params.CritAware)
}

// schedule performs the timing model shared by AccessAt and AccessBgAt:
// page hit/miss resolution, bus queueing (deferred when
// yield is set), and counters. It returns the absolute completion time.
func (c *Controller) schedule(addr int64, write bool, yield bool) sim.Time {
	row := addr / c.params.PageBytes
	bank := c.bankOf(row)

	access := c.params.HitLatency
	if c.openRow[bank] == row {
		c.pageHits++
	} else {
		c.pageMisses++
		access = c.params.MissLatency
		c.openPage(bank, row)
	}
	if write {
		c.writes++
	} else {
		c.reads++
	}

	transfer := sim.TransferTime(c.params.LineBytes, c.params.Bandwidth)
	qd := c.bus.QueueDelay()
	c.avgBacklog += (qd - c.avgBacklog) >> 2
	var start sim.Time
	if yield {
		extra := c.avgBacklog
		if lim := 2 * qd; extra > lim {
			extra = lim
		}
		start = c.bus.AcquireAt(c.eng.Now()+qd+extra, transfer)
	} else {
		start = c.bus.Acquire(transfer)
	}
	return start + access
}

// openPage opens row in bank, closing the oldest open page if the
// controller is at its open-page limit.
func (c *Controller) openPage(bank int, row int64) {
	if c.openRow[bank] == -1 {
		if c.ringLen == len(c.openRing) {
			oldest := c.openRing[c.ringHead]
			c.ringHead++
			if c.ringHead == len(c.openRing) {
				c.ringHead = 0
			}
			c.ringLen--
			c.openRow[oldest] = -1
		}
		tail := c.ringHead + c.ringLen
		if tail >= len(c.openRing) {
			tail -= len(c.openRing)
		}
		c.openRing[tail] = bank
		c.ringLen++
	}
	c.openRow[bank] = row
}

// bankOf hashes a row to a bank. Real RDRAM controllers swizzle address
// bits so that streams in distinct memory regions do not collide on the
// same banks; a plain modulo would make any two same-offset streams
// conflict on every access.
func (c *Controller) bankOf(row int64) int {
	r := uint64(row)
	r ^= r >> 10
	r ^= r >> 20
	return int(r % uint64(len(c.openRow)))
}

// Utilization reports the data-bus busy fraction since the last reset —
// the quantity the paper's Xmesh tool and Figs 10/11/20/22 display as
// "memory controller utilization".
func (c *Controller) Utilization() float64 { return c.bus.Utilization() }

// Reads reports completed read accesses since the last reset.
func (c *Controller) Reads() uint64 { return c.reads }

// Writes reports completed write accesses since the last reset.
func (c *Controller) Writes() uint64 { return c.writes }

// PageHits reports open-page accesses since the last reset.
func (c *Controller) PageHits() uint64 { return c.pageHits }

// PageMisses reports closed-page accesses since the last reset.
func (c *Controller) PageMisses() uint64 { return c.pageMisses }

// ResetStats clears counters and the utilization interval. Open-page state
// is preserved: resetting statistics must not change timing.
func (c *Controller) ResetStats() {
	c.bus.ResetStats()
	c.reads, c.writes, c.pageHits, c.pageMisses = 0, 0, 0, 0
}
