// Package boot holds only package-level state, so no function of it is
// ever reached. Its initializers still run before experiments reads Seed,
// and detflow scans them because a reached function reads one of its
// vars.
package boot

import "time"

// Seed is read by experiments.Seeded.
var Seed = time.Now().UnixNano() // want "time.Now is reachable from deterministic code \(experiments\.Seeded → boot\.\(var initializers\)\)"
