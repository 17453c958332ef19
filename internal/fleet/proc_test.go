package fleet

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gs1280/internal/experiments"
)

// TestWorkerProcessHelper is not a test: when re-executed with
// GSBENCH_FLEET_WORKER=1 it becomes a worker subprocess running
// WorkerMain over stdio — the standard helper-process pattern, so the
// subprocess path is tested without building gsbench first. os.Exit
// keeps the testing package's "PASS" line off the frame stream.
func TestWorkerProcessHelper(t *testing.T) {
	if os.Getenv("GSBENCH_FLEET_WORKER") != "1" {
		t.Skip("helper process for TestProcTransport")
	}
	if err := WorkerMain(os.Stdin, os.Stdout, nil); err != nil {
		os.Exit(1)
	}
	os.Exit(0)
}

func helperTransport(t *testing.T) *ProcTransport {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("GSBENCH_FLEET_WORKER", "1")
	return &ProcTransport{Argv: []string{exe, "-test.run=TestWorkerProcessHelper"}}
}

// TestProcTransportMatchesSerial runs real (analytic, near-instant)
// paper experiments on subprocess workers speaking the length-prefixed
// frame protocol, with a journal, and pins the output to the serial
// in-process path.
func TestProcTransportMatchesSerial(t *testing.T) {
	ids := []string{"fig1", "fig8", "fig9", "fig25"}
	journal := filepath.Join(t.TempDir(), "proc.jsonl")
	results, err := Run(context.Background(), ids, Options{
		Workers:     2,
		Transport:   helperTransport(t),
		JournalPath: journal,
		UnitTimeout: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		want, err := experiments.Run(id, false)
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Err != nil {
			t.Fatalf("%s: %v", id, results[i].Err)
		}
		if got := results[i].Table.String(); got != want.String() {
			t.Errorf("%s: subprocess table differs from serial:\n%s\nvs\n%s", id, got, want)
		}
	}
	// The journal recorded every unit and resumes to the same bytes with
	// no subprocess spawned at all.
	res2, err := Run(context.Background(), ids, Options{
		Workers:    2,
		Transport:  &neverSpawnTransport{}, // resume must not need workers
		ResumeFrom: journal,
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	for i := range ids {
		if res2[i].Err != nil {
			t.Fatalf("resume %s: %v", ids[i], res2[i].Err)
		}
		if res2[i].Table.String() != results[i].Table.String() {
			t.Errorf("resume %s: bytes differ from original run", ids[i])
		}
	}
}

// TestProcTransportSurvivesWorkerPanic: a unit panic inside a subprocess
// comes back in-band with the unit name and stack, and the worker process
// keeps serving.
func TestProcTransportSurvivesWorkerPanic(t *testing.T) {
	tr := helperTransport(t)
	ctx := context.Background()
	w, err := tr.Spawn(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Kill()
	// fig4's quick sweep exists; ask for an out-of-range unit to hit the
	// in-band error path, then a real one to prove the worker survived.
	if err := w.Send(Request{Exp: "fig4", Unit: 9999, Quick: true}); err != nil {
		t.Fatal(err)
	}
	resp, err := w.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" || !strings.Contains(resp.Err, "out of range") {
		t.Errorf("want in-band out-of-range error, got %+v", resp)
	}
	if err := w.Send(Request{Exp: "fig1", Unit: 0, Quick: true}); err != nil {
		t.Fatal(err)
	}
	resp, err = w.Recv()
	if err != nil {
		t.Fatalf("worker died after an in-band error: %v", err)
	}
	if resp.Err != "" || resp.Part == nil {
		t.Errorf("worker unhealthy after error: %+v", resp)
	}
	if _, err := experiments.DecodePart(resp.Part); err != nil {
		t.Errorf("subprocess part undecodable: %v", err)
	}
}

// TestProcTransportDeadWorkerCommand: workers that exit immediately
// (the subprocess analog of a crashing node) exhaust the per-unit
// attempt cap and surface as a bounded, reported failure — never a hang.
func TestProcTransportDeadWorkerCommand(t *testing.T) {
	falseBin, err := exec.LookPath("false")
	if err != nil {
		t.Skip("no `false` binary on PATH")
	}
	done := make(chan struct{})
	var results []Result
	go func() {
		defer close(done)
		results, _ = Run(context.Background(), []string{"fig1"}, Options{
			Workers:         2,
			Transport:       &ProcTransport{Argv: []string{falseBin}},
			MaxUnitAttempts: 3,
			SpawnBackoff:    time.Millisecond,
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("dead-worker fleet hung instead of failing")
	}
	if len(results) != 1 || results[0].Err == nil {
		t.Fatalf("want a bounded failure, got %+v", results)
	}
	if !strings.Contains(results[0].Err.Error(), "3 times") {
		t.Errorf("failure should cite the attempt cap, got: %v", results[0].Err)
	}
}
