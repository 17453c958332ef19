package main

import (
	"bufio"
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Pins are the committed digests of every checked result, per workload and
// seed. suite-quick's experiments seed themselves, so its pin holds for
// every seed.
//
//go:embed testdata/*.golden
var pinFS embed.FS

// pinDir is where -update writes pins, relative to the repository root
// the benchmark runs from.
const pinDir = "bench/testdata"

func pinFile(workload string, seed uint64) string {
	if workload == "suite-quick" {
		return workload + ".golden"
	}
	return fmt.Sprintf("%s.seed%d.golden", workload, seed)
}

// loadPin returns the pinned entries for (workload, seed), or nil when the
// seed is not pinned.
func loadPin(workload string, seed uint64) ([]entry, error) {
	b, err := pinFS.ReadFile("testdata/" + pinFile(workload, seed))
	if err != nil {
		return nil, nil
	}
	var pin []entry
	sc := bufio.NewScanner(strings.NewReader(string(b)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, d, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("pin %s: malformed line %q", pinFile(workload, seed), line)
		}
		pin = append(pin, entry{name, d})
	}
	return pin, sc.Err()
}

func writePin(workload string, seed uint64, entries []entry) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: the digest of each checked result of one pass, in order.\n", workload)
	fmt.Fprintf(&b, "# Regenerate with: bash bench/run.sh --workload %s --seed %d --update\n", workload, seed)
	for _, e := range entries {
		fmt.Fprintf(&b, "%s %s\n", e.name, e.digest)
	}
	return os.WriteFile(filepath.Join(pinDir, pinFile(workload, seed)), []byte(b.String()), 0o644)
}

// checker compares every pass's entries with the first pass's (simulation
// is deterministic) and, for a pinned seed, with the pin.
type checker struct {
	pin       []entry
	first     []entry
	attempted int
	failed    int
	problems  []string
}

// pass checks one pass's entries. A complete pass must hold every pinned
// entry; a pass the deadline cut short holds some of them.
func (c *checker) pass(got []entry, complete bool) {
	if c.first == nil {
		c.first = got
	}
	first, pin := digests(c.first), digests(c.pin)
	c.attempted += len(got)
	for _, e := range got {
		why := ""
		switch {
		case strings.HasPrefix(e.digest, "error"):
			why = e.digest
		case first[e.name] != e.digest:
			why = "differs from the first pass"
		case c.pin != nil && pin[e.name] != e.digest:
			why = "differs from the pin"
		}
		if why != "" {
			c.fail(fmt.Sprintf("%s %s: %s", e.name, e.digest, why))
		}
	}
	if missing := len(c.pin) - len(got); complete && missing > 0 {
		c.attempted += missing
		c.failed += missing
		c.note(fmt.Sprintf("%d pinned results missing", missing))
	}
}

func digests(es []entry) map[string]string {
	m := make(map[string]string, len(es))
	for _, e := range es {
		m[e.name] = e.digest
	}
	return m
}

// fail counts one failed result and notes why.
func (c *checker) fail(why string) {
	c.failed++
	c.note(why)
}

// note keeps the first few reasons for failures.
func (c *checker) note(why string) {
	if len(c.problems) < 5 {
		c.problems = append(c.problems, why)
	}
}
