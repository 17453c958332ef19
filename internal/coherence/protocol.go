package coherence

import (
	"fmt"

	"gs1280/internal/cache"
	"gs1280/internal/memctrl"
	"gs1280/internal/network"
	"gs1280/internal/sim"
	"gs1280/internal/stats"
	"gs1280/internal/topology"
	"gs1280/internal/trace"
)

// Params holds the node-side timing and structure of the protocol engine.
type Params struct {
	// L1Latency is the L1 load-to-use time (3 cycles on the EV7 core).
	L1Latency sim.Time
	// L2Latency is the on-chip L2 load-to-use time (12 cycles = 10.4 ns,
	// §2 of the paper).
	L2Latency sim.Time
	// CoreOverhead is the L2-miss-detection + MAF allocation time; with
	// the 60 ns open-page Zbox access it forms the 83 ns local latency.
	CoreOverhead sim.Time
	// OwnerLatency is the cache lookup at an owner servicing a Forward.
	OwnerLatency sim.Time
	// MAFEntries bounds outstanding misses per node (the EV7 keeps 16
	// victim/miss buffers).
	MAFEntries int
	// NAKThreshold, when positive, makes a home controller reject
	// requests to a line whose transaction queue is this deep; the
	// requester retries after RetryBackoff. Zero disables.
	NAKThreshold int
	// RetryBackoff is the delay before a NAKed request is resent.
	RetryBackoff sim.Time
	// ForceCritOn, with ForceCrit, overrides every outgoing packet's
	// criticality with one fixed class and routes background memory
	// writes through the demand path. It exists for the differential
	// harness: with every packet in one criticality, criticality-aware
	// arbitration must be byte-identical to FIFO, and this knob is how
	// the golden replays force that configuration on protocol traffic
	// (whose tags are otherwise intrinsic to the message types).
	ForceCritOn bool
	ForceCrit   network.Criticality

	// Cache geometry.
	L1Bytes, L2Bytes int64
	L1Ways, L2Ways   int
	LineBytes        int64
}

// DefaultParams returns the GS1280 node calibration (1.15 GHz EV7).
func DefaultParams() Params {
	return Params{
		L1Latency:    2600 * sim.Picosecond,  // 3 cycles
		L2Latency:    10400 * sim.Picosecond, // 12 cycles
		CoreOverhead: 23 * sim.Nanosecond,
		OwnerLatency: 12 * sim.Nanosecond,
		MAFEntries:   16,
		RetryBackoff: 120 * sim.Nanosecond,
		L1Bytes:      64 * 1024,
		L1Ways:       2,
		L2Bytes:      1792 * 1024, // 1.75 MB, 7-way
		L2Ways:       7,
		LineBytes:    64,
	}
}

// dirState is the home directory state of a line.
type dirState uint8

const (
	dirIdle dirState = iota
	dirShared
	dirExclusive
)

type homeMsgKind uint8

const (
	msgRead homeMsgKind = iota
	msgReadMod
	msgVictim
)

type homeMsg struct {
	kind  homeMsgKind
	from  topology.NodeID
	value uint64 // victim data
}

// dirEntry is one line's home directory state, stored in the home's
// slot-indexed dirTable. The zero value is a fresh idle entry; used is
// set on the first request so quiesced-state inspection can tell touched
// lines from never-referenced ones. The transaction queue is
// head-indexed so its backing array is reused across the entry's whole
// lifetime instead of leaking a slice head per pop.
type dirEntry struct {
	state   dirState
	owner   topology.NodeID
	sharers uint64
	value   uint64
	busy    bool
	used    bool
	queue   []homeMsg
	qhead   int
}

func (e *dirEntry) queued() int { return len(e.queue) - e.qhead }

func (e *dirEntry) pushQueue(m homeMsg) { e.queue = append(e.queue, m) }

// popQueue removes the head message. A continuously contended line never
// fully drains, so in addition to the reset-when-empty fast path the dead
// prefix is compacted away once it reaches half the slice: memory stays
// O(peak depth) however many requests pass through, and each element is
// copied at most once per compaction window — amortized O(1).
func (e *dirEntry) popQueue() homeMsg {
	m := e.queue[e.qhead]
	e.qhead++
	switch {
	case e.qhead == len(e.queue):
		e.queue = e.queue[:0]
		e.qhead = 0
	case e.qhead >= 16 && e.qhead*2 >= len(e.queue):
		n := copy(e.queue, e.queue[e.qhead:])
		e.queue = e.queue[:n]
		e.qhead = 0
	}
	return m
}

type waiter struct {
	write bool
	start sim.Time
	done  func(lat sim.Time)
}

// fwdReq is a Forward that arrived at an owner whose own fill for the line
// is still in flight; it replays once the fill completes. It replaces the
// former deferred closure chain: two words of data instead of a heap
// closure per deferral.
type fwdReq struct {
	requester topology.NodeID
	mod       bool
}

// mafEntry is one outstanding miss. Entries live in a fixed array sized
// Params.MAFEntries per node — the EV7's own structure bound — and are
// found by a linear scan of at most that many int64 compares, which beats
// a map lookup at this size by a wide margin. line == -1 marks a free
// slot. The waiters and deferredFwd backings are retained across reuse.
type mafEntry struct {
	line         int64
	nd           *node
	write        bool
	invalPending bool
	dataArrived  bool
	granted      cache.LineState
	acksExpected int
	acksGot      int
	value        uint64
	waiters      []waiter
	deferredFwd  []fwdReq
}

// release returns the entry to the free state, dropping callback
// references so completed transactions cannot pin their waiters.
func (e *mafEntry) release() {
	e.line = -1
	for i := range e.waiters {
		e.waiters[i] = waiter{}
	}
	e.waiters = e.waiters[:0]
	for i := range e.deferredFwd {
		e.deferredFwd[i] = fwdReq{}
	}
	e.deferredFwd = e.deferredFwd[:0]
	e.nd.mafLive--
}

type stalledOp struct {
	addr  int64
	write bool
	start sim.Time
	done  func(lat sim.Time)
}

// victimSlot holds one unacknowledged victim writeback and the accesses
// parked on it. Slots live in a small linearly scanned array (line == -1
// free), mirroring the EV7's victim buffers; a node rarely has more than a
// few in flight.
type victimSlot struct {
	line    int64
	value   uint64
	waiters []stalledOp
}

// NodeStats aggregates per-node protocol counters.
type NodeStats struct {
	Loads, Stores         uint64
	L1Hits, L2Hits        uint64
	Misses                uint64
	ReadDirty             uint64
	NAKs, Retries         uint64
	MissLatencySum        sim.Time
	MissLatencyCount      uint64
	VictimsSent, Upgrades uint64
}

// node is the protocol engine of one EV7: caches, MAF, two Zboxes and the
// directory for lines homed here.
type node struct {
	sys *System
	id  topology.NodeID
	l1  *cache.Cache
	l2  *cache.Cache
	z   [2]*memctrl.Controller

	dir         dirTable
	maf         []mafEntry
	mafLive     int
	mafStalled  []stalledOp
	stalledHead int
	victims     []victimSlot

	// scratchDone/scratchFwd are completeFill's reused partition buffers;
	// completeFill never nests (fills arrive only from the event queue),
	// so one set per node suffices.
	scratchDone []waiter
	scratchFwd  []fwdReq

	stats NodeStats
}

// mafFind returns the live MAF entry for line, or nil.
func (nd *node) mafFind(line int64) *mafEntry {
	for i := range nd.maf {
		if nd.maf[i].line == line {
			return &nd.maf[i]
		}
	}
	return nil
}

// mafAlloc claims a free MAF slot for line. The caller has checked
// occupancy against Params.MAFEntries.
func (nd *node) mafAlloc(line int64, write bool) *mafEntry {
	for i := range nd.maf {
		e := &nd.maf[i]
		if e.line == -1 {
			e.line = line
			e.write = write
			e.invalPending = false
			e.dataArrived = false
			e.granted = cache.Invalid
			e.acksExpected = 0
			e.acksGot = 0
			e.value = 0
			nd.mafLive++
			return e
		}
	}
	panic("coherence: MAF alloc with no free slot")
}

// victimFind returns the victim slot holding line, or nil.
func (nd *node) victimFind(line int64) *victimSlot {
	for i := range nd.victims {
		if nd.victims[i].line == line {
			return &nd.victims[i]
		}
	}
	return nil
}

// victimAdd claims a victim slot for line, growing the array only when
// every existing slot is in flight.
func (nd *node) victimAdd(line int64, value uint64) {
	for i := range nd.victims {
		if nd.victims[i].line == -1 {
			nd.victims[i].line = line
			nd.victims[i].value = value
			return
		}
	}
	nd.victims = append(nd.victims, victimSlot{line: line, value: value})
}

// victimLive counts unacknowledged victims (for invariant checks).
func (nd *node) victimLive() int {
	live := 0
	for i := range nd.victims {
		if nd.victims[i].line != -1 {
			live++
		}
	}
	return live
}

// System is the coherence fabric of a GS1280 machine: one protocol engine
// per node, connected by the torus network.
type System struct {
	eng    *sim.Engine
	net    *network.Network
	amap   AddressMap
	params Params
	nodes  []*node
	trace  *trace.Buffer

	// freeMsgs pools the protocol's message/transaction records (see
	// messages.go); steady state recycles a few dozen.
	freeMsgs []*msg

	// missHist is the machine-wide L2-miss latency distribution for the
	// current stats window, recorded on the same zero-alloc completion
	// path as the per-node mean counters (recordMiss).
	missHist stats.Histogram
}

// SetTrace attaches a trace buffer; protocol transactions are recorded
// while it is enabled. Pass nil to detach.
func (s *System) SetTrace(b *trace.Buffer) { s.trace = b }

// NewSystem builds protocol engines for every node of net's topology.
// zboxParams configures each node's two memory controllers.
func NewSystem(eng *sim.Engine, net *network.Network, amap AddressMap, params Params, zboxParams memctrl.Params) *System {
	n := net.Topology().N()
	if n != amap.Nodes {
		panic("coherence: address map node count mismatch")
	}
	if n > 64 {
		panic("coherence: protocol supports at most 64 nodes (sharer bitmask)")
	}
	if params.MAFEntries < 1 {
		panic("coherence: need at least one MAF entry")
	}
	if amap.SlotCount() > maxDirSlots {
		panic("coherence: directory slot space exceeds the spill table's 32-bit keys")
	}
	s := &System{eng: eng, net: net, amap: amap, params: params}
	s.nodes = make([]*node, n)
	for i := range s.nodes {
		nd := &node{
			sys: s,
			id:  topology.NodeID(i),
			l1:  cache.New(params.L1Bytes, params.L1Ways, params.LineBytes),
			l2:  cache.New(params.L2Bytes, params.L2Ways, params.LineBytes),
			maf: make([]mafEntry, params.MAFEntries),
		}
		for j := range nd.maf {
			nd.maf[j].line = -1
			nd.maf[j].nd = nd
		}
		nd.z[0] = memctrl.New(eng, zboxParams)
		nd.z[1] = memctrl.New(eng, zboxParams)
		s.nodes[i] = nd
	}
	return s
}

// AddressMap reports the system's address layout.
func (s *System) AddressMap() AddressMap { return s.amap }

// Params reports the node configuration.
func (s *System) Params() Params { return s.params }

// Stats reports a copy of node n's counters.
func (s *System) Stats(n topology.NodeID) NodeStats { return s.nodes[n].stats }

// ZboxUtilization reports the mean data-bus utilization of node n's two
// memory controllers — the per-CPU quantity Xmesh displays.
func (s *System) ZboxUtilization(n topology.NodeID) float64 {
	nd := s.nodes[n]
	return (nd.z[0].Utilization() + nd.z[1].Utilization()) / 2
}

// Zbox exposes controller ctl of node n for fine-grained inspection.
func (s *System) Zbox(n topology.NodeID, ctl int) *memctrl.Controller { return s.nodes[n].z[ctl] }

// MissLatencyHist reports the machine-wide miss-latency histogram
// (picoseconds) for the current stats window. Like the network's
// histograms, a miss in flight across a window boundary is recorded once,
// in the window where it completes. The pointer stays owned by the
// system; callers read or Merge from it.
func (s *System) MissLatencyHist() *stats.Histogram { return &s.missHist }

// ResetStats clears per-node counters, the miss-latency histogram and
// Zbox intervals (the network has its own ResetStats).
func (s *System) ResetStats() {
	for _, nd := range s.nodes {
		nd.stats = NodeStats{}
		nd.z[0].ResetStats()
		nd.z[1].ResetStats()
		nd.l1.ResetStats()
		nd.l2.ResetStats()
	}
	s.missHist.Reset()
}

// Access performs one load (write=false) or store (write=true) of the line
// containing addr from node id. done receives the load-to-use latency.
// Stores use read-modify-write semantics: the line's 64-bit value is
// incremented, which lets tests verify that no update is ever lost.
//
//gs:noalloc guard=TestCoherenceFastPathAllocs
func (s *System) Access(id topology.NodeID, addr int64, write bool, done func(lat sim.Time)) {
	nd := s.nodes[id]
	if write {
		nd.stats.Stores++
	} else {
		nd.stats.Loads++
	}
	s.tryAccess(nd, addr, write, s.eng.Now(), done)
}

// tryAccess walks the cache hierarchy; it is re-entered when stalled
// operations (MAF-full, victim-pending) are released.
func (s *System) tryAccess(nd *node, addr int64, write bool, start sim.Time, done func(lat sim.Time)) {
	line := s.amap.Align(addr)
	if !write && nd.l1.Access(addr) {
		nd.stats.L1Hits++
		s.complete(nd, start, s.params.L1Latency, done)
		return
	}
	if nd.l2.Access(addr) {
		st := nd.l2.Lookup(line)
		if !write {
			nd.stats.L2Hits++
			nd.l1.Fill(line, cache.SharedClean, 0)
			s.complete(nd, start, s.params.L2Latency, done)
			return
		}
		if st == cache.ExclusiveDirty {
			nd.stats.L2Hits++
			v, _ := nd.l2.Value(line)
			nd.l2.SetValue(line, v+1)
			s.complete(nd, start, s.params.L2Latency, done)
			return
		}
		// Shared line written: upgrade required, fall through to miss path.
		nd.stats.Upgrades++
	}
	nd.stats.Misses++
	s.startMiss(nd, line, write, start, done)
}

// complete schedules done(lat) at now+lat through a pooled record; the
// cache-hit fast path allocates nothing.
func (s *System) complete(nd *node, start, lat sim.Time, done func(sim.Time)) {
	end := s.eng.Now() + lat
	m := s.getMsg()
	m.kind = mkComplete
	m.done = done
	m.lat = end - start
	m.t.ScheduleAt(end)
}

// startMiss allocates (or joins) a MAF entry for line and issues the
// coherence transaction.
func (s *System) startMiss(nd *node, line int64, write bool, start sim.Time, done func(sim.Time)) {
	// A line with an unacknowledged victim writeback may not be
	// re-requested; park the access until the VictimAck arrives.
	if vs := nd.victimFind(line); vs != nil {
		vs.waiters = append(vs.waiters, stalledOp{line, write, start, done})
		return
	}
	if entry := nd.mafFind(line); entry != nil {
		entry.waiters = append(entry.waiters, waiter{write: write, start: start, done: done})
		return
	}
	if nd.mafLive >= s.params.MAFEntries {
		nd.mafStalled = append(nd.mafStalled, stalledOp{line, write, start, done})
		return
	}
	entry := nd.mafAlloc(line, write)
	entry.waiters = append(entry.waiters, waiter{write: write, start: start, done: done})
	m := s.getMsg()
	m.kind = mkSendReq
	m.nd = nd
	m.line = line
	m.mod = write
	m.t.Schedule(s.params.CoreOverhead)
}

// sendRequest transmits the Read/ReadMod request to the line's home.
func (s *System) sendRequest(nd *node, line int64, write bool) {
	home, _ := s.amap.Home(line)
	kind := msgRead
	note := "read"
	if write {
		kind = msgReadMod
		note = "readmod"
	}
	s.trace.Emit(trace.Request, int(nd.id), int(home), line, note)
	m := s.getMsg()
	m.kind = mkHomeMsg
	m.hkind = kind
	m.nd = s.nodes[home]
	m.from = nd.id
	m.line = line
	s.post(nd.id, home, network.Request, network.CritDemand, network.CtlPacketSize, m)
}

// homeReceive is the arrival point for requests and victims at a home.
func (s *System) homeReceive(home *node, line int64, hm homeMsg) {
	_, ctl, slot := s.amap.HomeSlot(line)
	e := home.dir.get(slot)
	e.used = true
	if e.busy {
		if hm.kind != msgVictim && s.params.NAKThreshold > 0 && e.queued() >= s.params.NAKThreshold {
			home.stats.NAKs++
			s.trace.Emit(trace.NAK, int(home.id), int(hm.from), line, "busy")
			s.sendNAK(home, line, hm)
			return
		}
		e.pushQueue(hm)
		return
	}
	s.dispatch(home, line, ctl, e, hm)
}

// sendNAK bounces an over-queued request back to the requester, which
// retries after a backoff. This is what bends the Fig 15 load-test curve
// backward past saturation when enabled.
func (s *System) sendNAK(home *node, line int64, hm homeMsg) {
	m := s.getMsg()
	m.kind = mkRetry
	m.nd = s.nodes[hm.from]
	m.line = line
	m.mod = hm.kind == msgReadMod
	s.post(home.id, hm.from, network.Response, network.CritControl, network.CtlPacketSize, m)
}

// dispatch begins processing one transaction; the entry is marked busy
// until the transaction's home-side work completes. ctl is the line's
// controller index, decoded once at homeReceive and threaded through the
// whole home-side transaction.
func (s *System) dispatch(home *node, line int64, ctl int, e *dirEntry, hm homeMsg) {
	e.busy = true
	if hm.kind == msgVictim {
		s.processVictim(home, line, ctl, e, hm)
		return
	}
	// Every request reads the directory (kept in RDRAM ECC on the EV7)
	// and, usually, the data: one Zbox access.
	m := s.getMsg()
	m.kind = mkZboxRead
	m.nd = home
	m.line = line
	m.ctl = ctl
	m.e = e
	m.from = hm.from
	m.hkind = hm.kind
	m.t.ScheduleAt(home.z[ctl].AccessAt(line, false))
}

func (s *System) processRequest(home *node, line int64, ctl int, e *dirEntry, from topology.NodeID, kind homeMsgKind) {
	switch {
	case kind == msgRead && e.state != dirExclusive:
		e.state = dirShared
		e.sharers |= 1 << uint(from)
		s.respond(home, line, from, e.value, cache.SharedClean, 0)
		s.finish(home, line, ctl, e)

	case kind == msgRead: // Exclusive elsewhere: 3-hop read-dirty.
		if e.owner == from {
			panic(fmt.Sprintf("coherence: node %d re-requested owned line %#x", from, line))
		}
		home.stats.ReadDirty++
		s.sendForward(home, line, e.owner, from, false)

	case e.state == dirIdle:
		e.state = dirExclusive
		e.owner = from
		e.sharers = 0
		s.respond(home, line, from, e.value, cache.ExclusiveDirty, 0)
		s.finish(home, line, ctl, e)

	case e.state == dirShared:
		acks := 0
		for sh := e.sharers; sh != 0; sh &= sh - 1 {
			target := topology.NodeID(trailingZeros(sh))
			if target == from {
				continue
			}
			acks++
			s.sendInval(home, line, target, from)
		}
		e.state = dirExclusive
		e.owner = from
		e.sharers = 0
		s.respond(home, line, from, e.value, cache.ExclusiveDirty, acks)
		s.finish(home, line, ctl, e)

	default: // ReadMod on Exclusive: forward-mod, 3-hop dirty transfer.
		if e.owner == from {
			panic(fmt.Sprintf("coherence: node %d upgrade-requested owned line %#x", from, line))
		}
		home.stats.ReadDirty++
		s.sendForward(home, line, e.owner, from, true)
	}
}

// finish completes the home-side transaction and drains the queue.
func (s *System) finish(home *node, line int64, ctl int, e *dirEntry) {
	e.busy = false
	if e.queued() == 0 {
		return
	}
	s.dispatch(home, line, ctl, e, e.popQueue())
}

// processVictim applies an owner writeback. A victim from a node that is
// no longer the owner is stale (its data already reached memory through a
// ShareWB); it is acknowledged without a memory write.
func (s *System) processVictim(home *node, line int64, ctl int, e *dirEntry, hm homeMsg) {
	if e.state == dirExclusive && e.owner == hm.from {
		m := s.getMsg()
		m.kind = mkZboxVictim
		m.nd = home
		m.line = line
		m.ctl = ctl
		m.e = e
		m.from = hm.from
		m.value = hm.value
		m.t.ScheduleAt(s.zboxBgWriteAt(home, ctl, line))
		return
	}
	s.sendVictimAck(home, line, hm.from)
	s.finish(home, line, ctl, e)
}

func trailingZeros(v uint64) int {
	n := 0
	for v&1 == 0 {
		v >>= 1
		n++
	}
	return n
}
