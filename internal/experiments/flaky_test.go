package experiments

import "testing"

// TestFlakySaturErrorTax pins the sweep's shape: every noisy sample still
// delivers (exactly-once recovery, finite latency), retransmission
// activity is nonzero wherever ber > 0, and recovery is paid for — at the
// highest common rate the noisy fabric's p99 is no better than healthy.
func TestFlakySaturErrorTax(t *testing.T) {
	tab, err := Run("flaky-satur", true)
	if err != nil {
		t.Fatal(err)
	}
	healthyP99, noisyP99 := 0.0, 0.0
	for _, r := range tab.Rows {
		bw, lat := parse(t, r[3]), parse(t, r[4])
		if bw <= 0 || lat <= 0 {
			t.Errorf("row %v drained or stalled", r)
		}
		if r[0] != "adaptive" || r[2] != "60" {
			continue
		}
		if r[1] == "0" {
			healthyP99 = parse(t, r[9])
			continue
		}
		noisyP99 = parse(t, r[9])
		if parse(t, r[10]) == 0 || parse(t, r[11]) == 0 || parse(t, r[12]) == 0 {
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
	tab, err := Run("flaky-quarantine", true)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, r := range tab.Rows {
		rows++
		if bw := parse(t, r[2]); bw <= 0 {
			t.Errorf("row %v drained", r)
		}
		if parse(t, r[6]) == 0 || parse(t, r[7]) == 0 {
			t.Errorf("row %v shows no error activity on the bad cable", r)
		}
		quar, reroutes := parse(t, r[9]), parse(t, r[10])
		switch r[0] {
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
			t.Errorf("unknown mode %q", r[0])
		}
	}
	if want := len(flakyQuarantine.variants.list) * len(saturQuickRates); rows != want {
		t.Fatalf("quick ablation has %d rows, want %d", rows, want)
	}
}
