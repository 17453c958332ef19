// Package experiments mimics the real experiment registry's shape; its
// base name makes every function declared here a detflow reachability
// root. It holds no sink itself: detflow's findings all land in the
// helper package the roots reach.
package experiments

import "detflow/helper"

type unit struct {
	name string
	run  func() int
}

// source is dispatched through an interface, exercising the call
// graph's CHA step: any module type implementing it could be behind s.
type source interface{ Value() int }

// Specs builds units whose run closures call into the helper package —
// the func-value indirection the call graph flattens into this root.
func Specs() []unit {
	return []unit{
		{name: "good", run: func() int { return helper.Deterministic(3) }},
		{name: "bad", run: func() int { return helper.Tainted() }},
	}
}

// RunAll drives every unit, like Spec.Runner does in the real module.
func RunAll() int {
	total := 0
	for _, u := range Specs() {
		total += u.run()
	}
	return total
}

// Stats reaches the helper's map-iteration sinks.
func Stats(m map[string]int) (int, []string) {
	return helper.Summarize(m), helper.SortedKeys(m)
}

// FromSource calls through the interface; CHA resolves it to every
// implementing type, including helper.Clock.
func FromSource(s source) int { return s.Value() }

// Progress reaches a helper sink that carries an audited waiver.
func Progress() int { return helper.Waived() }
