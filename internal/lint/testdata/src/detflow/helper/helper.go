// Package helper is a support package outside the deterministic set:
// detflow must prove the functions experiments can reach are free of
// nondeterministic sinks, and stay silent about the ones experiments
// cannot reach.
package helper

import (
	"os"
	"sort"
	"time"
)

var start time.Time

// epoch is initialized before any helper function runs, so a reached
// package's var initializers are scanned with its functions.
var epoch = time.Now().Unix() // want "time.Now is reachable from deterministic code"

// Deterministic is a clean reachable function.
func Deterministic(n int) int { return n * n }

// Tainted reaches the wall clock through one more hop.
func Tainted() int { return clockNow() }

func clockNow() int {
	return int(time.Now().UnixNano()) // want "time.Now is reachable from deterministic code"
}

// Clock implements the experiments.source interface; detflow finds its
// sink through CHA dispatch, with no direct reference anywhere.
type Clock struct{}

func (Clock) Value() int {
	return int(time.Now().Unix()) // want "time.Now is reachable from deterministic code"
}

// Summarize folds a map in iteration order on a reachable path.
func Summarize(m map[string]int) int {
	total := 0
	for _, v := range m { // want "range over map"
		total += v
	}
	return total
}

// SortedKeys collects then sorts — the accepted key-collection prologue.
func SortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Waived demonstrates an annotated sink: reachable, but justified.
func Waived() int {
	//lint:wallclock-ok fixture: presentation-only timing demonstration
	return int(time.Since(start).Nanoseconds())
}

// Unreached reads the environment but is never reachable from an
// experiment root: detflow must not flag it.
func Unreached() string { return os.Getenv("HOME") }
