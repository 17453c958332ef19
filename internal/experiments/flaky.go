package experiments

import (
	"fmt"
	"slices"

	"gs1280/internal/sim"
	"gs1280/internal/traffic"
)

// The flaky-* experiments measure the regime the GS1280 actually ran in:
// physically noisy cables recovered by per-hop CRC-and-retransmit (see
// network/reliable.go). flaky-satur sweeps throughput and tail latency
// against bit-error rate; flaky-quarantine ablates the auto-quarantine
// policy on a fabric with one chronically bad cable. Zero-BER rows are
// byte-identical to satur-uniform (TestFlakyHealthyRowsMatchSaturUniform
// pins it): at probability zero the reliable layer is never installed.

// flakySatur is satur-uniform plus a fabric-wide bit-error-rate axis and
// the reliable-link counters. The seed ignores the ber, so the ber=0 rows
// replay satur-uniform's exact simulations. The full sweep of per-hop
// error probabilities is healthy, one error per thousand hops, per
// hundred, and one per twenty — the last well past anything a real cable
// survives burn-in with, to show recovery degrading gracefully instead of
// falling off a cliff.
var flakySatur = &openFamily{
	id:       "flaky-satur",
	title:    "Flaky fabric: uniform saturation sweep vs per-hop bit-error rate on the 64P (8x8) torus",
	variants: routings,
	level: &openLevel{key: "ber", header: "ber",
		full: []float64{0, 0.001, 0.01, 0.05}, quick: []float64{0, 0.01},
		set: func(p *openPoint, v float64) { p.ber = v }},
	cols: slices.Concat(saturCols, []openCol{colP99, colRetransmits, colDroppedHops, colAckMsgs}),
	notes: []string{
		"ber=0 rows reproduce satur-uniform byte-identically: at probability zero the reliable layer is never installed",
		"errors split evenly between wire drops and CRC corruptions; retransmission keeps delivery exact while p99 pays the recovery tax",
	},
}

// flakyQuarantine ablates the quarantine policy on the 8x8 torus with one
// 20%-error cable — the row-0 X wrap that degradedFaults amputates, here
// left in service until policy removes it. Every mode gets the same
// traffic.
var flakyQuarantine = &openFamily{
	id:    "flaky-quarantine",
	title: "Flaky fabric: auto-quarantine ablation with one 20%-error wrap cable, uniform traffic, 8x8",
	base:  openPoint{badCable: 0.2},
	variants: openAxis{"mode", []openVariant{
		{"off", func(*openPoint) {}},
		{"quarantine", func(p *openPoint) { p.quarThreshold = 8 }},
		{"probation", func(p *openPoint) { p.quarThreshold, p.quarProbation = 8, 5*sim.Microsecond }},
	}},
	sameSeed: true,
	cols: []openCol{colDelivered, colLatency, colP99,
		{"retry p99 ns", func(r traffic.Result) string { return fq(r.RetryLat.P99) }},
		colRetransmits, colDroppedHops, colAckMsgs,
		{"quarantines", func(r traffic.Result) string { return fmt.Sprint(r.Quarantines) }},
		colReroutes, colNonMinimal},
	notes: []string{
		"off: every hop over the bad cable gambles; quarantine: the error-rate monitor hands it to FailLink and traffic detours",
		"probation restores the cable after 5us; a still-bad cable re-trips the threshold and flaps back out",
	},
}
