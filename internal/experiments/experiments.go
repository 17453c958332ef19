// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment returns a Table whose rows mirror what the
// paper plots; cmd/gsbench prints them. The README's experiment catalog
// maps each id to its paper artifact.
//
// Experiments are declared as Specs: a list of independent Units (whole
// experiments, or individual sweep points for the sweep-style figures)
// plus an Assemble step that merges unit outputs in declared order. The
// serial entry points (Run, Spec.Run) execute units in order on one
// goroutine; the scheduler (internal/fleet, behind internal/runner) fans
// the same units across many. Because
// every unit builds its own machines, engine and seeded RNGs, both paths
// produce byte-identical tables.
package experiments

import (
	"fmt"
	"strings"

	"gs1280/internal/cpu"
	"gs1280/internal/machine"
	"gs1280/internal/sim"
	"gs1280/internal/workload"
)

// Table is one regenerated paper artifact.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a free-text note rendered under the table.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// f1, f2 format floats tersely for table cells.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// fns formats a sim.Time as integer nanoseconds.
func fns(t sim.Time) string { return fmt.Sprintf("%.0f", t.Nanoseconds()) }

// chaseLatency measures the steady-state dependent-load latency of a
// dataset on CPU 0 of a machine built from r: one warm pass over every
// line, then a measured pass capped at measureOps.
func chaseLatency(env *Env, r rig, dataset, stride int64, measureOps int) sim.Time {
	type args struct {
		dataset, stride int64
		measureOps      int
	}
	return measureRig(env, r, args{dataset, stride, measureOps}, func(m machine.Machine) sim.Time {
		lines := int(dataset / stride)
		if lines < 1 {
			lines = 1
		}
		base := m.RegionBase(0)
		machineRun(m, 0, workload.NewPointerChase(base, dataset, stride, lines))
		m.ResetStats()
		n := lines
		if n > measureOps {
			n = measureOps
		}
		machineRun(m, 0, workload.NewPointerChase(base, dataset, stride, n))
		return m.CPU(0).Stats().AvgLatency()
	})
}

func machineRun(m machine.Machine, id int, s cpu.Stream) {
	m.CPU(id).Run(s, nil)
	m.Engine().Run()
}

// CSV renders the table as RFC-4180-ish CSV (header row first). Cells are
// quoted only when they contain commas or quotes; notes are omitted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Header)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
			b.WriteByte('"')
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}
