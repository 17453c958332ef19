package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"gs1280/internal/experiments"
)

var updateJournalFixture = flag.Bool("update-journal-fixture", false,
	"rewrite testdata/journal.v1.jsonl from the current writer (only valid alongside a journalVersion bump)")

// fixtureRecords are the exact contents of testdata/journal.v1.jsonl.
// They cover the Part shapes the journal carries: a rows+notes part, a
// whole-table part, and an empty part.
func fixtureRecords(t *testing.T) (journalHeader, []journalRecord) {
	t.Helper()
	header := journalHeader{Version: 1, Suite: "f00dfeedcafe0001", IDs: []string{"alpha", "beta"}, Quick: true}
	parts := []struct {
		exp  string
		unit int
		name string
		part experiments.Part
	}{
		{"alpha", 0, "alpha[0]", experiments.Part{
			Rows:  [][]string{{"0", "deadbeef"}, {"1", "cafe,quoted \"cell\""}},
			Notes: []string{"first unit"},
		}},
		{"alpha", 2, "alpha[2]", experiments.Part{Table: &experiments.Table{
			ID: "alpha", Title: "whole table", Header: []string{"k", "v"},
			Rows: [][]string{{"x", "1"}}, Notes: []string{"note"},
		}}},
		{"beta", 0, "beta[0]", experiments.Part{}},
	}
	records := make([]journalRecord, len(parts))
	for i, p := range parts {
		encoded, err := experiments.EncodePart(p.part)
		if err != nil {
			t.Fatal(err)
		}
		records[i] = journalRecord{Suite: header.Suite, Exp: p.exp, Unit: p.unit, Name: p.name, Part: encoded}
	}
	return header, records
}

// writeFixtureJournal writes the fixture contents through the real
// journal code path and returns the bytes.
func writeFixtureJournal(t *testing.T, path string) []byte {
	t.Helper()
	header, records := fixtureRecords(t)
	j, err := createJournal(path, header)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		if err := j.record(rec.Suite, rec.Exp, rec.Unit, rec.Name, rec.Part); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestJournalFormatStability pins the on-disk JSONL format to the
// committed fixture in both directions: today's writer must reproduce the
// fixture byte for byte, and today's reader must load it. Any change to
// field names, ordering, or the Part encoding breaks resumability of
// journals in the wild and must bump journalVersion (and this fixture).
//
// To regenerate after an intentional, version-bumped format change:
//
//	go test ./internal/fleet -run TestJournalFormatStability -update-journal-fixture
func TestJournalFormatStability(t *testing.T) {
	fixture := filepath.Join("testdata", "journal.v1.jsonl")
	got := writeFixtureJournal(t, filepath.Join(t.TempDir(), "journal.jsonl"))
	if *updateJournalFixture {
		if err := os.WriteFile(fixture, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatalf("missing fixture (run with -update-journal-fixture to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("journal writer no longer reproduces the v1 fixture — this is a format break.\ngot:\n%s\nwant:\n%s", got, want)
	}

	header, records, _, err := loadJournal(fixture)
	if err != nil {
		t.Fatalf("journal reader cannot load the v1 fixture: %v", err)
	}
	wantHeader, wantRecords := fixtureRecords(t)
	if !reflect.DeepEqual(header, wantHeader) {
		t.Errorf("fixture header = %+v, want %+v", header, wantHeader)
	}
	if len(records) != len(wantRecords) {
		t.Fatalf("fixture decoded %d records, want %d", len(records), len(wantRecords))
	}
	for i := range records {
		gotPart, err := experiments.DecodePart(records[i].Part)
		if err != nil {
			t.Fatalf("record %d part: %v", i, err)
		}
		wantPart, _ := experiments.DecodePart(wantRecords[i].Part)
		if !reflect.DeepEqual(gotPart, wantPart) {
			t.Errorf("record %d part round-trip mismatch", i)
		}
	}
}

// TestSuiteHashPinned pins the real suite's unit identity: the hash a
// journal's header carries, over every experiment's unit count and unit
// names. A journal resumes only under the hash it was written with, so a
// renamed, added or re-split unit strands every existing journal. A
// change that alters the units must update these values and say why, as
// a fixture update does.
func TestSuiteHashPinned(t *testing.T) {
	for _, c := range []struct {
		quick bool
		units int
		want  string
	}{
		{true, 137, "ff255aa27434debcffe6d29f5fbe54d9"},
		{false, 397, "aee2c134fcedce192344a7fe4eddc948"},
	} {
		units := 0
		for _, spec := range experiments.Specs() {
			units += len(spec.Units(c.quick))
		}
		if got := SuiteHash(experiments.IDs(), c.quick, nil); got != c.want || units != c.units {
			t.Errorf("quick=%t: suite of %d units hashes to %s, want %d units hashing to %s",
				c.quick, units, got, c.units, c.want)
		}
	}
}

// TestJournalRoundTrip: records written through the journal replay into
// identical parts.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	writeFixtureJournal(t, path)
	header, records, _, err := loadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if header.Suite != "f00dfeedcafe0001" || !header.Quick {
		t.Errorf("header mangled: %+v", header)
	}
	idIndex := map[string]int{"alpha": 0, "beta": 1}
	parts, err := replayJournal(records, idIndex, []int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	_, wantRecords := fixtureRecords(t)
	for _, rec := range wantRecords {
		want, _ := experiments.DecodePart(rec.Part)
		got, ok := parts[idIndex[rec.Exp]][rec.Unit]
		if !ok {
			t.Fatalf("replay lost %s[%d]", rec.Exp, rec.Unit)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("replay of %s[%d] is not identity", rec.Exp, rec.Unit)
		}
	}
}

// TestJournalToleratesCrashTruncatedTail: a final line cut short by a
// crash mid-append is dropped (that unit reruns); corruption anywhere
// earlier is refused.
func TestJournalToleratesCrashTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	full := writeFixtureJournal(t, path)

	// Cut the last record in half: load succeeds with one fewer record.
	trunc := filepath.Join(dir, "trunc.jsonl")
	lines := strings.SplitAfter(strings.TrimSuffix(string(full), "\n"), "\n")
	last := lines[len(lines)-1]
	cut := strings.Join(lines[:len(lines)-1], "") + last[:len(last)/2]
	if err := os.WriteFile(trunc, []byte(cut), 0o644); err != nil {
		t.Fatal(err)
	}
	_, records, end, err := loadJournal(trunc)
	if err != nil {
		t.Fatalf("crash-truncated tail should be tolerated: %v", err)
	}
	if len(records) != 2 {
		t.Errorf("truncated journal decoded %d records, want 2", len(records))
	}
	if want := len(cut) - len(last)/2; end != int64(want) {
		t.Errorf("truncated journal: end = %d, want %d (just past the last whole record)", end, want)
	}

	// Corrupt a middle record: refused outright.
	mid := filepath.Join(dir, "mid.jsonl")
	lines2 := strings.SplitAfter(string(full), "\n")
	lines2[2] = "{\"suite\":\"f00dfeedcafe0001\",GARBAGE\n"
	if err := os.WriteFile(mid, []byte(strings.Join(lines2, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loadJournal(mid); err == nil {
		t.Error("mid-file corruption should be an error")
	}

	// Unknown version: refused.
	ver := filepath.Join(dir, "ver.jsonl")
	hdr, _ := json.Marshal(journalHeader{Version: 99, Suite: "s", IDs: []string{"a"}})
	if err := os.WriteFile(ver, append(hdr, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loadJournal(ver); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future-version journal should be refused, got %v", err)
	}

	// Empty file: refused.
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loadJournal(empty); err == nil {
		t.Error("empty journal should be an error")
	}
}

// TestResumeInPlaceOverTornTail: `gsbench -resume j -journal j`, the
// command gsbench prints on SIGINT, appends to the journal it resumes. A
// crash can leave that journal's last line torn, or whole but without its
// newline; appending straight after either would bury a corrupt line
// mid-file. Each resume must instead leave a journal that loads, holds
// every unit exactly once, and resumes again executing nothing.
func TestResumeInPlaceOverTornTail(t *testing.T) {
	var bodies atomic.Int32
	lookup := synthLookup(counted(&bodies, synthSpec("alpha", 9)), counted(&bodies, synthSpec("beta", 4)))
	ids := []string{"alpha", "beta"}
	want := serialOracle(t, ids, lookup)
	tears := []struct {
		name string
		tear func(journal []byte) []byte
	}{
		{"last record cut in half", func(j []byte) []byte {
			last := j[bytes.LastIndexByte(j[:len(j)-1], '\n')+1:]
			return j[:len(j)-len(last)/2]
		}},
		{"first record lost, last unterminated", func(j []byte) []byte {
			lines := bytes.SplitAfter(j, []byte("\n"))
			return bytes.TrimSuffix(bytes.Join(append(lines[:1], lines[2:]...), nil), []byte("\n"))
		}},
	}
	for _, tc := range tears {
		path := filepath.Join(t.TempDir(), "run.jsonl")
		if _, err := Run(context.Background(), ids, Options{Workers: 2, Lookup: lookup, JournalPath: path}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, tc.tear(data), 0o644); err != nil {
			t.Fatal(err)
		}
		for pass, wantRuns := range []int32{1, 0} {
			bodies.Store(0)
			results, err := Run(context.Background(), ids, Options{Workers: 2, Lookup: lookup, JournalPath: path, ResumeFrom: path})
			if err != nil {
				t.Fatalf("%s, resume %d: %v", tc.name, pass+1, err)
			}
			if got := renderResults(t, results); got != want {
				t.Errorf("%s, resume %d: output differs from the serial oracle", tc.name, pass+1)
			}
			if n := bodies.Load(); n != wantRuns {
				t.Errorf("%s, resume %d: executed %d units, want %d", tc.name, pass+1, n, wantRuns)
			}
			_, records, _, err := loadJournal(path)
			if err != nil {
				t.Fatalf("%s: journal unreadable after resume %d: %v", tc.name, pass+1, err)
			}
			seen := make(map[string]int)
			for _, rec := range records {
				seen[fmt.Sprintf("%s[%d]", rec.Exp, rec.Unit)]++
			}
			for key, n := range seen {
				if n != 1 {
					t.Errorf("%s, resume %d: %s journaled %d times", tc.name, pass+1, key, n)
				}
			}
			if len(seen) != 13 {
				t.Errorf("%s, resume %d: journal holds %d of 13 units", tc.name, pass+1, len(seen))
			}
		}
	}
}

// TestReplayRejectsForeignRecords: records naming experiments or unit
// indices outside the suite are refused — reaching them means the
// journal's suite hash is lying.
func TestReplayRejectsForeignRecords(t *testing.T) {
	_, records := fixtureRecords(t)
	idIndex := map[string]int{"alpha": 0, "beta": 1}
	if _, err := replayJournal(records, map[string]int{"beta": 0}, []int{1}); err == nil {
		t.Error("unknown experiment should be refused")
	}
	if _, err := replayJournal(records, idIndex, []int{1, 1}); err == nil {
		t.Error("out-of-range unit should be refused")
	}
}

// TestCreateJournalSyncsParentDir pins the durability contract of journal
// creation: the parent directory must exist and be fsyncable — a path
// whose directory is gone fails at create time with a directory error,
// not later at the first record append. (The positive half — that a
// surviving directory entry implies a replayable file — is what every
// other journal test exercises through createJournal.)
func TestCreateJournalSyncsParentDir(t *testing.T) {
	header, _ := fixtureRecords(t)
	dir := t.TempDir()
	j, err := createJournal(filepath.Join(dir, "journal.jsonl"), header)
	if err != nil {
		t.Fatalf("createJournal in a healthy directory: %v", err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	if err := syncDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("syncDir of a nonexistent directory reported success")
	} else if !strings.Contains(err.Error(), "journal directory") {
		t.Fatalf("syncDir error %q does not name the journal directory", err)
	}
}
