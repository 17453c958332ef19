// Command gsbench regenerates the paper's tables and figures.
//
// Usage:
//
//	gsbench -list
//	gsbench -run fig13
//	gsbench -run all [-quick] [-j 8] [-csv | -json] [-progress]
//	gsbench -run all [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	gsbench -run all -fleet 4 [-journal run.jsonl] [-unit-timeout 5m]
//	gsbench -resume run.jsonl
//	gsbench -worker
//
// Experiments (and the sweep points inside them) are independent
// simulations, so -run all fans them across -j worker goroutines (default:
// one per core). Output is deterministic: tables are printed in paper
// order with byte-identical contents for any -j. Tables go to stdout;
// timing and progress go to stderr, so redirecting stdout captures clean
// artifacts. Ctrl-C cancels the remaining runs.
//
// -fleet N dispatches units to N `gsbench -worker` subprocesses instead of
// in-process goroutines: a crashed, hung (-unit-timeout, which needs
// -fleet), or corrupted worker is respawned and its units reassigned, so
// one bad simulation cannot take down the campaign. -journal records every
// completed unit (fsynced JSONL) and -resume replays a journal — id list
// and -quick are recovered from its header — executing only the missing
// units, with or without -fleet. Any fleet shape, failure history, or
// resume point produces bytes identical to -j1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"gs1280/internal/experiments"
	"gs1280/internal/fleet"
)

// jsonTable is the -json shape of one regenerated artifact. Timings are
// included because the JSON consumer is usually a tracking dashboard; the
// table fields themselves are deterministic.
type jsonTable struct {
	ID        string     `json:"id"`
	Title     string     `json:"title"`
	Header    []string   `json:"header"`
	Rows      [][]string `json:"rows"`
	Notes     []string   `json:"notes,omitempty"`
	Units     int        `json:"units"`
	WorkMS    float64    `json:"work_ms"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

// flagConflict returns the one-line usage error for an invalid flag
// combination, or "" if the combination is valid. A worker is a
// subprocess serving the frame protocol on stdin/stdout; it cannot itself
// dispatch a fleet, write a journal, or resume one. A unit deadline needs
// -fleet: an in-process unit cannot be killed, and because units are
// deterministic, a retry of a hung one would hang the same way.
func flagConflict(worker bool, fleetN int, journalPath, resume string, unitTimeout time.Duration) string {
	coordinatorFlag := ""
	switch {
	case fleetN > 0:
		coordinatorFlag = "-fleet"
	case journalPath != "":
		coordinatorFlag = "-journal"
	case resume != "":
		coordinatorFlag = "-resume"
	}
	switch {
	case worker && coordinatorFlag != "":
		return "-worker is a fleet subprocess role and cannot combine with " + coordinatorFlag
	case unitTimeout > 0 && fleetN == 0:
		return "-unit-timeout needs -fleet: an in-process unit cannot be killed"
	}
	return ""
}

func main() {
	list := flag.Bool("list", false, "list experiment ids")
	run := flag.String("run", "", `experiment id to run (or "all")`)
	quick := flag.Bool("quick", false, "reduced sweeps for fast runs")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := flag.Bool("json", false, "emit a JSON array of tables with timings")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulations (1 = serial)")
	progress := flag.Bool("progress", false, "report each finished simulation unit on stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file` (pprof format)")
	memProfile := flag.String("memprofile", "", "write an allocation profile at exit to `file` (pprof format)")
	worker := flag.Bool("worker", false, "serve unit requests on stdin/stdout as a fleet worker (spawned by -fleet)")
	fleetN := flag.Int("fleet", 0, "dispatch units to `N` gsbench -worker subprocesses with crash recovery")
	journalPath := flag.String("journal", "", "record each completed unit to this JSONL `file` for -resume (fsynced)")
	resume := flag.String("resume", "", "resume an interrupted run from its journal `file`; -run and -quick are taken from its header")
	unitTimeout := flag.Duration("unit-timeout", 0, "with -fleet, kill and reassign a worker that holds one unit longer than this (0 = no deadline)")
	flag.Parse()

	if conflict := flagConflict(*worker, *fleetN, *journalPath, *resume, *unitTimeout); conflict != "" {
		fmt.Fprintf(os.Stderr, "gsbench: %s\n", conflict)
		os.Exit(2)
	}
	if *worker {
		// Worker mode: stdout belongs to the frame protocol, so any
		// failure detail goes to stderr and the exit code.
		if err := fleet.WorkerMain(os.Stdin, os.Stdout, nil); err != nil {
			fmt.Fprintf(os.Stderr, "gsbench: worker: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	if *run == "" && *resume == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *csv && *jsonOut {
		fmt.Fprintln(os.Stderr, "gsbench: -csv and -json are mutually exclusive")
		os.Exit(2)
	}
	var ids []string
	switch {
	case *run == "all":
		ids = experiments.IDs()
	case *run != "":
		ids = []string{*run}
	default:
		// -resume without -run: the journal header names the suite.
		var err error
		var journalQuick bool
		ids, journalQuick, err = fleet.JournalSuite(*resume)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gsbench: -resume: %v\n", err)
			os.Exit(2)
		}
		*quick = journalQuick
	}

	// Profiling hooks so perf work can attach pprof evidence to a real
	// suite run without patching the binary:
	//
	//	gsbench -run all -quick -cpuprofile cpu.pprof -memprofile mem.pprof
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gsbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "gsbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
	}
	// main exits through os.Exit, so profiles are flushed explicitly at
	// every exit path below rather than via defer.
	stopProfiles := func() {
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gsbench: -memprofile: %v\n", err)
				return
			}
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "gsbench: -memprofile: %v\n", err)
			}
			f.Close()
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// Unregister on the first interrupt so a second Ctrl-C falls through to
	// default termination — in-flight simulations are not interruptible and
	// may otherwise hold the process for seconds.
	go func() {
		<-ctx.Done()
		stop()
	}()

	var onUnit func(fleet.UnitDone)
	if *progress {
		onUnit = func(ev fleet.UnitDone) {
			fmt.Fprintf(os.Stderr, "gsbench: [%3d/%3d] %-28s %v\n",
				ev.Done, ev.Total, ev.Unit, ev.Elapsed.Round(time.Millisecond))
		}
	}

	// Units run in-process on -j slot goroutines, or on -fleet worker
	// subprocesses; either way they journal and resume identically.
	fopts := fleet.Options{
		Workers:     *jobs,
		Quick:       *quick,
		JournalPath: *journalPath,
		ResumeFrom:  *resume,
		UnitTimeout: *unitTimeout,
		OnUnit:      onUnit,
	}
	if *fleetN > 0 {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gsbench: -fleet: %v\n", err)
			os.Exit(2)
		}
		fopts.Workers = *fleetN
		fopts.Transport = &fleet.ProcTransport{Argv: []string{exe, "-worker"}, Stderr: os.Stderr}
	}
	start := time.Now()
	results, runErr := fleet.Run(ctx, ids, fopts)

	exit := 0
	cancelled := 0
	var tables []jsonTable
	for _, r := range results {
		if r.Err != nil {
			if runErr != nil && errors.Is(r.Err, runErr) {
				cancelled++ // summarized once below instead of one line each
				exit = 1
				continue
			}
			fmt.Fprintf(os.Stderr, "gsbench: %s: %v\n", r.ID, r.Err)
			exit = 1
			continue
		}
		switch {
		case *jsonOut:
			tables = append(tables, jsonTable{
				ID:        r.Table.ID,
				Title:     r.Table.Title,
				Header:    r.Table.Header,
				Rows:      r.Table.Rows,
				Notes:     r.Table.Notes,
				Units:     r.Units,
				WorkMS:    float64(r.Work) / float64(time.Millisecond),
				ElapsedMS: float64(r.Elapsed) / float64(time.Millisecond),
			})
		case *csv:
			fmt.Print(r.Table.CSV())
		default:
			fmt.Println(r.Table)
			fmt.Fprintf(os.Stderr, "gsbench: %s regenerated in %v (%d units, %v summed work)\n",
				r.ID, r.Elapsed.Round(time.Millisecond), r.Units, r.Work.Round(time.Millisecond))
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fmt.Fprintf(os.Stderr, "gsbench: %v\n", err)
			exit = 1
		}
	}
	if len(ids) > 1 && runErr == nil {
		if *fleetN > 0 {
			fmt.Fprintf(os.Stderr, "gsbench: suite of %d experiments in %v with -fleet %d\n",
				len(ids), time.Since(start).Round(time.Millisecond), *fleetN)
		} else {
			fmt.Fprintf(os.Stderr, "gsbench: suite of %d experiments in %v with -j %d\n",
				len(ids), time.Since(start).Round(time.Millisecond), *jobs)
		}
	}
	if runErr != nil {
		if cancelled > 0 {
			fmt.Fprintf(os.Stderr, "gsbench: %v: %d of %d experiments not completed\n",
				runErr, cancelled, len(ids))
		} else {
			fmt.Fprintf(os.Stderr, "gsbench: %v\n", runErr)
		}
		// An interrupted journaled run is resumable: each completed unit
		// was fsynced before it was acknowledged, so the journal is
		// already durable — tell the user how to pick the run back up.
		if errors.Is(runErr, context.Canceled) && *journalPath != "" {
			fmt.Fprintf(os.Stderr, "gsbench: interrupted; resume with: gsbench -resume %s -journal %s\n",
				*journalPath, *journalPath)
		}
		exit = 1
	}
	stopProfiles()
	os.Exit(exit)
}
