// Package detsource exercises the detsource analyzer: wall-clock reads,
// the global math/rand stream and environment reads are nondeterminism
// sources that must not reach simulation code.
package detsource

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
// the deterministic spelling detsource steers code toward.
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
