package experiments

import (
	"gs1280/internal/coherence"
	"gs1280/internal/machine"
	"gs1280/internal/network"
)

// critDiff is the golden differential mode: when on, every network the
// experiments build for a single-class population — each openPoint without
// a criticality mix, and degraded-map's probes — runs with
// criticality-aware arbitration enabled, and every GS1280 additionally
// flattens all protocol packets (and the memory controllers' background
// writes) into one forced class. A single-class population makes the
// criticality arbiter degenerate to FIFO — see network.Packet's
// enqueue-age invariant — so in this mode every experiment without a
// mixed population must reproduce its flag-off output byte for byte. The
// tail-satur and tail-degraded points inject a mix, so the mode leaves
// them alone. internal/runner's golden tests toggle it around replays.
var critDiff critMode

// critMode is the differential mode's state. Memo keys carry it, since it
// changes what newGS1280 and openPoint.run build.
type critMode struct {
	on     bool
	forced network.Criticality
}

// CritDifferential enables the golden differential mode with the given
// forced class and returns the restore function. It mutates package state:
// callers toggle it only around otherwise-idle replays (the runner's
// worker goroutines are started after the toggle and joined before the
// restore), never concurrently with normal runs.
func CritDifferential(forced network.Criticality) (restore func()) {
	critDiff = critMode{on: true, forced: forced}
	return func() { critDiff = critMode{} }
}

// newGS1280 is the experiments' single GS1280 construction point: it
// applies the differential mode, composing with any CohOverride the
// experiment already set.
func newGS1280(cfg machine.GS1280Config) *machine.GS1280 {
	if critDiff.on {
		cfg.CritArb = true
		prev := cfg.CohOverride
		forced := critDiff.forced
		cfg.CohOverride = func(p *coherence.Params) {
			if prev != nil {
				prev(p)
			}
			p.ForceCritOn = true
			p.ForceCrit = forced
		}
	}
	return machine.NewGS1280(cfg)
}
