package main

import (
	"runtime"
	"time"

	"gs1280/internal/cache"
	"gs1280/internal/memctrl"
	"gs1280/internal/sim"
	"gs1280/internal/topology"
)

// churnLoop times n engine steps over a standing population of 256 pending
// events, each of which reschedules itself through AtArg: the dispatch
// pattern of every simulation.
func churnLoop(n int) time.Duration {
	e := sim.NewEngine()
	var tick func(any)
	tick = func(any) { e.AtArg(e.Now()+sim.Time(e.Executed()%97+1)*sim.Nanosecond, tick, nil) }
	for i := 0; i < 256; i++ {
		e.AtArg(sim.Time(i+1)*sim.Nanosecond, tick, nil)
	}
	t0 := threadCPU()
	for i := 0; i < n; i++ {
		e.Step()
	}
	return threadCPU() - t0
}

// cacheLoop times n accesses to an EV7-sized L2 (1.75 MB, 7 ways) sweeping
// four times its capacity, filling on every miss.
func cacheLoop(n int) time.Duration {
	c := cache.New(1792*1024, 7, 64)
	t0 := threadCPU()
	for i := 0; i < n; i++ {
		addr := int64(i) * 64 % (4 * 1792 * 1024)
		if !c.Access(addr) {
			c.Fill(addr, cache.SharedClean, 0)
		}
	}
	return threadCPU() - t0
}

// memctrlLoop times n sequential-line reads through one memory controller,
// advancing simulated time to the last completion every 256 accesses so
// the bus queue stays bounded.
func memctrlLoop(n int) time.Duration {
	eng := sim.NewEngine()
	c := memctrl.New(eng, memctrl.DefaultParams())
	t0 := threadCPU()
	for i := 0; i < n; i++ {
		done := c.AccessAt(int64(i)*64, false)
		if i%256 == 255 {
			eng.RunUntil(done)
		}
	}
	return threadCPU() - t0
}

// nextHopsLoop times n minimal next-hop lookups on the 8x8 torus into a
// reused buffer, the routing step of every packet hop.
func nextHopsLoop(n int) time.Duration {
	t := topology.NewTorus(8, 8)
	var hops []topology.Edge
	t0 := threadCPU()
	for i := 0; i < n; i++ {
		hops = t.AppendNextHops(hops[:0], topology.NodeID(i%64), topology.NodeID((i*7+13)%64))
	}
	return threadCPU() - t0
}

// isolatedLoops times one hot call per layer in a tight loop, outside any
// simulation, so a shift in a layer's self time can be told apart from a
// change in how often the layer is called. Each is the median thread CPU
// time of 5 runs.
func isolatedLoops() map[string]float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	out := map[string]float64{}
	for name, loop := range map[string]func(int) time.Duration{
		"sim.churn_ns":         churnLoop,
		"cache.access_ns":      cacheLoop,
		"memctrl.access_ns":    memctrlLoop,
		"topology.nexthops_ns": nextHopsLoop,
	} {
		const iters = 200_000
		var runs []float64
		for i := 0; i < 5; i++ {
			runs = append(runs, float64(loop(iters).Nanoseconds())/iters)
		}
		out[name] = median(runs)
	}
	return out
}
