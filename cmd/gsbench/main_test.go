package main

import (
	"testing"
	"time"
)

// TestWorkerConflict pins the flag-validation contract: -worker refuses
// every coordinator-only flag with a clear one-line error naming the
// offender, and accepts the plain invocation the fleet actually spawns;
// -unit-timeout is refused without -fleet, whose workers are the only
// units a deadline can kill.
func TestWorkerConflict(t *testing.T) {
	withWorker := func(flag string) string {
		return "-worker is a fleet subprocess role and cannot combine with " + flag
	}
	const needsFleet = "-unit-timeout needs -fleet: an in-process unit cannot be killed"
	cases := []struct {
		name            string
		worker          bool
		fleetN          int
		journal, resume string
		unitTimeout     time.Duration
		want            string
	}{
		{"plain worker", true, 0, "", "", 0, ""},
		{"with fleet", true, 4, "", "", 0, withWorker("-fleet")},
		{"with journal", true, 0, "run.jsonl", "", 0, withWorker("-journal")},
		{"with resume", true, 0, "", "run.jsonl", 0, withWorker("-resume")},
		{"fleet wins ordering", true, 4, "run.jsonl", "run.jsonl", 0, withWorker("-fleet")},
		{"in-process journal", false, 0, "run.jsonl", "run.jsonl", 0, ""},
		{"timeout with fleet", false, 3, "run.jsonl", "", time.Minute, ""},
		{"timeout without fleet", false, 0, "", "", time.Minute, needsFleet},
		{"timeout with in-process journal", false, 0, "run.jsonl", "", time.Minute, needsFleet},
		{"timeout on a worker", true, 0, "", "", time.Minute, needsFleet},
	}
	for _, c := range cases {
		if got := flagConflict(c.worker, c.fleetN, c.journal, c.resume, c.unitTimeout); got != c.want {
			t.Errorf("%s: flagConflict = %q, want %q", c.name, got, c.want)
		}
	}
}
