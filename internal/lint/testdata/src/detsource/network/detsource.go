// Package network exercises detflow's source sinks. Its base name puts
// it in the deterministic set, so every function here roots the proof:
// wall-clock reads, the global math/rand stream and environment reads
// are nondeterminism sources that must not reach simulation code.
package network

import (
	"math/rand"
	"os"
	"time"
)

// flaggedNow reads the wall clock.
func flaggedNow() int64 {
	return time.Now().UnixNano() // want "wall clock"
}

// flaggedSince also reads the wall clock (Since calls Now internally).
func flaggedSince(t0 time.Time) time.Duration {
	return time.Since(t0) // want "wall clock"
}

// allowedWallclock carries a justified suppression for presentation-only
// progress timing.
func allowedWallclock() time.Time {
	return time.Now() //lint:wallclock-ok progress display only, never feeds simulated state
}

// flaggedGlobalRand draws from the process-global generator, whose
// stream is shared across goroutines and not replayable.
func flaggedGlobalRand() int {
	return rand.Intn(8) // want "global math/rand"
}

// allowedSeededRand draws from an explicitly seeded local generator —
// the deterministic spelling detflow steers code toward.
func allowedSeededRand(r *rand.Rand) int {
	return r.Intn(8)
}

// flaggedEnv reads the environment, which varies across hosts and CI.
func flaggedEnv() string {
	return os.Getenv("GS_DEBUG") // want "environment"
}

// allowedEnv shows a justified suppression for a startup-only read.
func allowedEnv() (string, bool) {
	return os.LookupEnv("GS_TRACE") //lint:nondet-ok debug toggle read once at startup, never during simulation
}

// init is a root like any other function of the package.
func init() {
	_ = os.Environ() // want "environment"
}

// now binds the wall clock as a function value: no call names time.Now,
// yet every now() reads it.
var now = time.Now // want "wall clock"

func flaggedNowValue() int64 {
	return now().UnixNano()
}

// flaggedEnvValue binds os.Getenv to a local before calling it.
func flaggedEnvValue() string {
	get := os.Getenv // want "environment"
	return get("GS_DEBUG")
}

// allowedSeededMethodValue binds a seeded generator's method: methods
// are never sinks.
func allowedSeededMethodValue(r *rand.Rand) func(int) int {
	return r.Intn
}

// boot reads the wall clock once, at package initialization.
var boot = time.Now() // want "wall clock"

// total is a package-level func literal folding a map in iteration order.
var total = func(m map[int]int) (s int) {
	for _, v := range m { // want "range over map"
		s += v
	}
	return s
}
