// Package sim exercises detflow's map-order sink. Its base name puts it
// in the deterministic set, so every function here roots the proof:
// map iteration must either feed a sort, stay order-insensitive by
// construction, or carry a justified //lint:unordered-ok.
package sim

import (
	"sort"
	"time"
)

// flagged concatenates map keys in iteration order — the canonical
// nondeterminism the map-order sink exists to catch: the result differs
// run to run.
func flagged(m map[string]int) string {
	s := ""
	for k := range m { // want "range over map"
		s += k
	}
	return s
}

// sortedIteration is the accepted key-collect idiom: the loop body only
// appends, and order is restored by the sort before anything observes it.
func sortedIteration(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// counted is the other allowed shape: a body that only bumps counters is
// order-insensitive by construction.
func counted(m map[int]bool) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// suppressed shows a justified suppression: the directive names why
// iteration order cannot leak.
func suppressed(m map[int]int) int {
	total := 0
	//lint:unordered-ok integer sum, commutative, order cannot leak
	for _, v := range m {
		total += v
	}
	return total
}

// bareDirective shows that a directive without a reason does not
// suppress: justifications are mandatory.
func bareDirective(m map[int]int) int {
	total := 0
	//lint:unordered-ok
	for _, v := range m { // want "range over map"
		total += v
	}
	return total
}

// converted collects keys through a conversion, which calls nothing:
// still the accepted key-collect idiom.
func converted(m map[int]bool) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, int64(k))
	}
	return keys
}

// engine stands in for sim.Engine: scheduling observes call order.
type engine struct{ seq int }

func (e *engine) Schedule(k int) int { e.seq += k; return e.seq }

// scheduled looks like key collection, but the appended value is a call:
// it schedules one event per key, in map order.
func scheduled(e *engine, m map[int]bool) []int {
	var seqs []int
	for k := range m { // want "range over map"
		seqs = append(seqs, e.Schedule(k))
	}
	return seqs
}

// lastWins appends to a slice it does not assign back: each iteration
// replaces last, so the result holds whichever key came last.
func lastWins(base []string, m map[string]int) []string {
	var last []string
	for k := range m { // want "range over map"
		last = append(base, k)
	}
	return last
}

// joinKeys is a package-level func literal: the sink sits in a var
// initializer, not in a function declaration.
var joinKeys = func(m map[string]int) string {
	s := ""
	for k := range m { // want "range over map"
		s += k
	}
	return s
}

// boot reads the wall clock once, at package initialization.
var boot = time.Now() // want "wall clock"
