package machine

import (
	"fmt"

	"gs1280/internal/cache"
	"gs1280/internal/cpu"
	"gs1280/internal/sim"
)

// SMPConfig describes a previous-generation Alpha system: 21264 CPUs
// sharing memory through a switch (ES45) or through QBB-local plus global
// switches (GS320). These baselines are modeled more coarsely than the
// GS1280 — fixed local/remote latencies with shared-resource queueing —
// because the paper uses them only as aggregate comparison points.
type SMPConfig struct {
	Name        string
	CPUs        int
	CPUsPerNode int

	L1Bytes   int64
	L1Ways    int
	L1Latency sim.Time
	L2Bytes   int64
	L2Ways    int
	L2Latency sim.Time
	LineBytes int64

	// CoreOverhead is charged on every L2 miss before the memory system.
	CoreOverhead sim.Time
	// LocalLatency is the memory access time within the CPU's node (QBB).
	LocalLatency sim.Time
	// RemoteLatency is the access time to another node's memory.
	RemoteLatency sim.Time
	// DirtyExtra is added when the line was last written by another CPU
	// and has not been read since (the read-dirty penalty of Fig 12).
	DirtyExtra sim.Time
	// NodeBusBandwidth is the shared memory bandwidth of one node — the
	// resource the paper's Fig 7 shows saturating on ES45/GS320.
	NodeBusBandwidth int64
	// GlobalBandwidth is the per-node port into the global switch.
	GlobalBandwidth int64
	// MLP bounds outstanding misses per CPU (the 21264 sustains fewer
	// than the EV7).
	MLP int
	// RegionBytes is the per-CPU memory region, as on the GS1280.
	RegionBytes int64

	// Eng, when non-nil, is the engine to build on instead of a fresh
	// one. The caller must hand over a pristine engine (fresh or Reset);
	// internal/experiments reuses one set per worker this way.
	Eng *sim.Engine
}

// ES45Config returns the 4-CPU AlphaServer ES45 (1.25 GHz 21264)
// calibration: 16 MB off-chip direct-mapped L2 at ~45 ns, ~190 ns local
// memory, and a shared memory system that tops out near 3.6 GB/s (Fig 7).
func ES45Config() SMPConfig {
	return SMPConfig{
		Name:             "ES45",
		CPUs:             4,
		CPUsPerNode:      4,
		L1Bytes:          64 * 1024,
		L1Ways:           2,
		L1Latency:        2400 * sim.Picosecond,
		L2Bytes:          16 << 20,
		L2Ways:           1,
		L2Latency:        45 * sim.Nanosecond,
		LineBytes:        64,
		CoreOverhead:     30 * sim.Nanosecond,
		LocalLatency:     160 * sim.Nanosecond,
		RemoteLatency:    160 * sim.Nanosecond, // single node: never used
		DirtyExtra:       330 * sim.Nanosecond,
		NodeBusBandwidth: 3_600_000_000,
		GlobalBandwidth:  3_600_000_000,
		MLP:              6,
		RegionBytes:      64 << 20,
	}
}

// GS320Config returns the 32-CPU AlphaServer GS320 (1.22 GHz 21264)
// calibration: QBBs of four CPUs, ~330 ns local and ~750 ns remote memory
// (Fig 12), with the global switch port around 1.6 GB/s per QBB.
func GS320Config(cpus int) SMPConfig {
	if cpus < 1 || cpus > 32 {
		panic(fmt.Sprintf("machine: GS320 supports 1-32 CPUs, got %d", cpus))
	}
	return SMPConfig{
		Name:             "GS320",
		CPUs:             cpus,
		CPUsPerNode:      4,
		L1Bytes:          64 * 1024,
		L1Ways:           2,
		L1Latency:        2500 * sim.Picosecond,
		L2Bytes:          16 << 20,
		L2Ways:           1,
		L2Latency:        55 * sim.Nanosecond,
		LineBytes:        64,
		CoreOverhead:     30 * sim.Nanosecond,
		LocalLatency:     300 * sim.Nanosecond,
		RemoteLatency:    720 * sim.Nanosecond,
		DirtyExtra:       550 * sim.Nanosecond,
		NodeBusBandwidth: 2_400_000_000,
		GlobalBandwidth:  1_600_000_000,
		MLP:              6,
		RegionBytes:      64 << 20,
	}
}

// SC45Config returns an SC45 cluster slice: ES45 nodes joined by a
// Quadrics switch. Shared-memory traffic cannot cross nodes; MPI-style
// workloads see an inter-node latency three orders of magnitude above
// local memory.
func SC45Config(cpus int) SMPConfig {
	cfg := ES45Config()
	cfg.Name = "SC45"
	cfg.CPUs = cpus
	cfg.RemoteLatency = 5 * sim.Microsecond // Quadrics MPI round trip
	cfg.GlobalBandwidth = 300_000_000
	return cfg
}

// SMP is an assembled baseline machine.
type SMP struct {
	Eng  *sim.Engine
	Cfg  SMPConfig
	CPUs []*cpu.CPU

	l1, l2 []*cache.Cache
	// busses[g] serializes node g's memory system; globals[g] its global
	// switch port.
	busses  []*sim.Resource
	globals []*sim.Resource
	// lastWriter tracks which CPU last dirtied each line, approximating
	// read-dirty penalties without a full protocol.
	lastWriter map[int64]int

	// freeDone pools completion records (with their embedded timers), so
	// the access path schedules without allocating a closure per access.
	freeDone []*smpDone
}

// smpDone carries one access's completion callback to its scheduled
// instant. Pooled, with its own embedded timer, so the GS320, ES45 and
// SC45 access path neither allocates nor touches the engine's node pool.
//
//gs:pooled
type smpDone struct {
	m          *SMP
	t          sim.Timer
	start, end sim.Time
	done       func(sim.Time)
}

// runSMPDone dispatches a pooled completion; the record is released before
// the callback runs because the callback usually issues the next access.
func runSMPDone(a any) {
	d := a.(*smpDone)
	done, lat := d.done, d.end-d.start
	d.done = nil
	d.m.freeDone = append(d.m.freeDone, d)
	done(lat)
}

// smpPort wires one CPU into the machine.
type smpPort struct {
	m  *SMP
	id int
}

func (p smpPort) Access(addr int64, write bool, done func(sim.Time)) {
	p.m.access(p.id, addr, write, done)
}

// NewSMP assembles a baseline machine from cfg.
func NewSMP(cfg SMPConfig) *SMP {
	if cfg.CPUs < 1 || cfg.CPUsPerNode < 1 {
		panic("machine: invalid SMP config")
	}
	eng := cfg.Eng
	if eng == nil {
		eng = sim.NewEngine()
	}
	m := &SMP{
		Eng:        eng,
		Cfg:        cfg,
		lastWriter: make(map[int64]int),
	}
	groups := (cfg.CPUs + cfg.CPUsPerNode - 1) / cfg.CPUsPerNode
	for g := 0; g < groups; g++ {
		m.busses = append(m.busses, sim.NewResource(eng))
		m.globals = append(m.globals, sim.NewResource(eng))
	}
	for i := 0; i < cfg.CPUs; i++ {
		m.l1 = append(m.l1, cache.New(cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes))
		m.l2 = append(m.l2, cache.New(cfg.L2Bytes, cfg.L2Ways, cfg.LineBytes))
		m.CPUs = append(m.CPUs, cpu.New(eng, i, cfg.MLP, smpPort{m: m, id: i}))
	}
	return m
}

// N reports the CPU count.
func (m *SMP) N() int { return len(m.CPUs) }

// RegionBase reports the first address of CPU i's region.
func (m *SMP) RegionBase(i int) int64 { return int64(i) * m.Cfg.RegionBytes }

// RegionBytes reports the per-CPU region size.
func (m *SMP) RegionBytes() int64 { return m.Cfg.RegionBytes }

// TotalMemory reports the machine's address-space size.
func (m *SMP) TotalMemory() int64 { return int64(m.Cfg.CPUs) * m.Cfg.RegionBytes }

// node reports the node (QBB) index of CPU id.
func (m *SMP) node(id int) int { return id / m.Cfg.CPUsPerNode }

// homeCPU reports the CPU whose region holds addr.
func (m *SMP) homeCPU(addr int64) int {
	h := int(addr / m.Cfg.RegionBytes)
	if h < 0 || h >= m.Cfg.CPUs {
		panic(fmt.Sprintf("machine: address %#x outside %s memory", addr, m.Cfg.Name))
	}
	return h
}

func (m *SMP) access(id int, addr int64, write bool, done func(sim.Time)) {
	start := m.Eng.Now()
	line := addr &^ (m.Cfg.LineBytes - 1)
	l1, l2 := m.l1[id], m.l2[id]

	if !write && l1.Access(addr) {
		m.completeAt(start, m.Cfg.L1Latency, done)
		return
	}
	if l2.Access(addr) {
		// Writes hit only if this CPU already owns the dirty line.
		if !write {
			l1.Fill(line, cache.SharedClean, 0)
			m.completeAt(start, m.Cfg.L2Latency, done)
			return
		}
		if w, ok := m.lastWriter[line]; ok && w == id {
			m.completeAt(start, m.Cfg.L2Latency, done)
			return
		}
	}

	// Memory access.
	homeNode := m.node(m.homeCPU(addr))
	myNode := m.node(id)
	lat := m.Cfg.CoreOverhead
	transfer := sim.TransferTime(int(m.Cfg.LineBytes), m.Cfg.NodeBusBandwidth)
	busStart := m.busses[homeNode].Acquire(transfer)
	lat += busStart - start // queueing on the home memory system
	if homeNode == myNode {
		lat += m.Cfg.LocalLatency
	} else {
		lat += m.Cfg.RemoteLatency
		// A remote coherent miss moves roughly three switch messages
		// (request, probe/forward, data response), so the global port is
		// occupied for 3x the line transfer — the protocol amplification
		// that keeps GS320's delivered remote bandwidth far below its raw
		// switch bandwidth.
		gTransfer := sim.TransferTime(int(m.Cfg.LineBytes)*3, m.Cfg.GlobalBandwidth)
		gStart := m.globals[homeNode].AcquireAt(busStart, gTransfer)
		lat += gStart - busStart
	}

	// Read-dirty penalty: the line must be pulled from another CPU's
	// off-chip cache.
	if w, ok := m.lastWriter[line]; ok && w != id {
		lat += m.Cfg.DirtyExtra
	}
	if write {
		m.lastWriter[line] = id
	} else {
		// A read leaves the line clean-shared.
		delete(m.lastWriter, line)
	}

	st := cache.SharedClean
	if write {
		st = cache.ExclusiveDirty
	}
	if v, had := l2.Fill(line, st, 0); had {
		l1.Invalidate(v.Addr)
	}
	l1.Fill(line, cache.SharedClean, 0)
	m.completeAt(start, lat, done)
}

func (m *SMP) completeAt(start sim.Time, lat sim.Time, done func(sim.Time)) {
	end := start + lat
	if end < m.Eng.Now() {
		end = m.Eng.Now()
	}
	var d *smpDone
	if n := len(m.freeDone); n > 0 {
		d = m.freeDone[n-1]
		m.freeDone = m.freeDone[:n-1]
	} else {
		d = &smpDone{m: m}
		d.t.InitFunc(m.Eng, runSMPDone, d)
	}
	d.start, d.end, d.done = start, end, done
	d.t.ScheduleAt(end)
}

// BusUtilization reports node g's memory-system busy fraction.
func (m *SMP) BusUtilization(g int) float64 { return m.busses[g].Utilization() }

// ResetStats clears CPU counters and bus intervals.
func (m *SMP) ResetStats() {
	for _, c := range m.CPUs {
		c.ResetStats()
	}
	for _, b := range m.busses {
		b.ResetStats()
	}
	for _, g := range m.globals {
		g.ResetStats()
	}
}
