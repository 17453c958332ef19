package experiments

import "testing"

// TestFlakySaturErrorTax pins the sweep's shape: every noisy sample still
// delivers (exactly-once recovery, finite latency), retransmission
// activity is nonzero wherever ber > 0, and recovery is paid for — at the
// highest common rate the noisy fabric's p99 is no better than healthy.
func TestFlakySaturErrorTax(t *testing.T) {
	tab := quickTable(t, "flaky-satur")
	routing, ber, rate := column(t, tab, "routing"), column(t, tab, "ber"), column(t, tab, "offered pkts/node/us")
	bwCol, latCol, p99 := column(t, tab, "delivered MB/s"), column(t, tab, "avg latency ns"), column(t, tab, "p99 ns")
	retransmits, dropped, acks := column(t, tab, "retransmits"), column(t, tab, "dropped hops"), column(t, tab, "ack msgs")
	healthyP99, noisyP99 := 0.0, 0.0
	for _, r := range tab.Rows {
		bw, lat := parse(t, r[bwCol]), parse(t, r[latCol])
		if bw <= 0 || lat <= 0 {
			t.Errorf("row %v drained or stalled", r)
		}
		if r[routing] != "adaptive" || r[rate] != "60" {
			continue
		}
		if r[ber] == "0" {
			healthyP99 = parse(t, r[p99])
			continue
		}
		noisyP99 = parse(t, r[p99])
		if parse(t, r[retransmits]) == 0 || parse(t, r[dropped]) == 0 || parse(t, r[acks]) == 0 {
			t.Errorf("noisy row %v shows no retransmission activity", r)
		}
	}
	if noisyP99 < healthyP99 {
		t.Errorf("noisy p99 %v beats healthy p99 %v: recovery cannot be free", noisyP99, healthyP99)
	}
}

// TestFlakyQuarantineAblation pins the ablation's logic: with the policy
// off the bad cable is never removed (zero quarantines, zero reroutes from
// quarantine), and with it on every sample trips exactly one quarantine
// and reroutes traffic off the cable.
func TestFlakyQuarantineAblation(t *testing.T) {
	tab := quickTable(t, "flaky-quarantine")
	mode, bwCol := column(t, tab, "mode"), column(t, tab, "delivered MB/s")
	retransmits, dropped := column(t, tab, "retransmits"), column(t, tab, "dropped hops")
	quarCol, reroutesCol := column(t, tab, "quarantines"), column(t, tab, "reroutes")
	rows := 0
	for _, r := range tab.Rows {
		rows++
		if bw := parse(t, r[bwCol]); bw <= 0 {
			t.Errorf("row %v drained", r)
		}
		if parse(t, r[retransmits]) == 0 || parse(t, r[dropped]) == 0 {
			t.Errorf("row %v shows no error activity on the bad cable", r)
		}
		quar, reroutes := parse(t, r[quarCol]), parse(t, r[reroutesCol])
		switch r[mode] {
		case "off":
			if quar != 0 {
				t.Errorf("mode off quarantined: %v", r)
			}
		case "quarantine":
			if quar != 1 {
				t.Errorf("quarantine mode tripped %v times, want 1: %v", quar, r)
			}
			if reroutes == 0 {
				t.Errorf("quarantine fired but no queued packets rerouted: %v", r)
			}
		case "probation":
			if quar == 0 {
				t.Errorf("probation mode never quarantined: %v", r)
			}
		default:
			t.Errorf("unknown mode %q", r[mode])
		}
	}
	if want := len(flakyQuarantine.variants.list) * len(saturQuickRates); rows != want {
		t.Fatalf("quick ablation has %d rows, want %d", rows, want)
	}
}
