package experiments

import "gs1280/internal/network"

// critMode is the golden differential mode, carried by the Env a unit runs
// on. When on, every network the experiments build for a single-class
// population — each openPoint without a criticality mix, and
// degraded-map's probes — runs with criticality-aware arbitration enabled,
// and every GS1280 (see rig.build) additionally flattens all protocol
// packets (and the memory controllers' background writes) into the one
// forced class. A single-class population makes the criticality arbiter
// degenerate to FIFO — see network.Packet's enqueue-age invariant — so in
// this mode every experiment without a mixed population must reproduce its
// flag-off output byte for byte. The tail-satur and tail-degraded points
// inject a mix, so the mode leaves them alone. Memo keys carry the mode,
// since it changes what rig.build and openPoint.run build.
type critMode struct {
	on     bool
	forced network.Criticality
}

// CritDifferential returns a lookup over the experiment catalog whose
// specs run every unit with the golden differential mode on, forcing the
// given class: the mode is set on the unit's Env and cleared when the unit
// returns. internal/runner's golden tests pass it as Options.Lookup.
func CritDifferential(forced network.Criticality) func(id string) (Spec, bool) {
	mode := critMode{on: true, forced: forced}
	return func(id string) (Spec, bool) {
		s, ok := SpecByID(id)
		if !ok {
			return s, false
		}
		units := s.Units
		s.Units = func(q bool) []Unit {
			us := units(q)
			for i := range us {
				run := us[i].Run
				us[i].Run = func(env *Env) Part {
					if env == nil {
						env = NewEnv(nil)
					}
					env.crit = mode
					defer func() { env.crit = critMode{} }()
					return run(env)
				}
			}
			return us
		}
		return s, true
	}
}
