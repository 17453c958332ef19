package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"gs1280/internal/experiments"
)

// journalVersion is the on-disk format version. Bump it — and version the
// format-stability fixture — on any incompatible change to the header,
// record shape, or Part encoding.
const journalVersion = 1

// journalHeader is the first line of a journal: the suite identity a
// resume must match, plus enough to reconstruct the run (ids in request
// order, quick flag) so `gsbench -resume` needs no other flags.
type journalHeader struct {
	Version int      `json:"version"`
	Suite   string   `json:"suite"`
	IDs     []string `json:"ids"`
	Quick   bool     `json:"quick"`
}

// journalRecord is one completed unit: keyed by suite hash + experiment
// id + unit index, carrying the experiments.EncodePart bytes. Name is
// redundant human context for anyone reading the JSONL directly.
type journalRecord struct {
	Suite string          `json:"suite"`
	Exp   string          `json:"exp"`
	Unit  int             `json:"unit"`
	Name  string          `json:"name,omitempty"`
	Part  json.RawMessage `json:"part"`
}

// SuiteHash fingerprints a suite: the requested ids in order, the quick
// flag, and every experiment's unit count and unit names. A journal
// recorded under one hash cannot silently resume a different suite — a
// changed sweep density, a reordered id list, or a renamed unit all
// change the hash and are rejected at resume time.
func SuiteHash(ids []string, quick bool, lookup Lookup) string {
	lookup = orRegistry(lookup)
	h := sha256.New()
	fmt.Fprintf(h, "gs1280-suite-v%d\x00quick=%t\x00", journalVersion, quick)
	for _, id := range ids {
		fmt.Fprintf(h, "%s\x00", id)
		spec, ok := lookup(id)
		if !ok {
			fmt.Fprintf(h, "unknown\x00")
			continue
		}
		units := spec.Units(quick)
		fmt.Fprintf(h, "%d\x00", len(units))
		for _, u := range units {
			fmt.Fprintf(h, "%s\x00", u.Name)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// journal appends completed-unit records to an fsynced JSONL file. Every
// record is durable before the coordinator acknowledges the unit, so a
// crash — of a worker, the coordinator, or the host — loses at most the
// units actually in flight.
type journal struct {
	f *os.File
}

// createJournal starts a fresh journal at path (truncating any previous
// file: starting a new run over an old journal is an explicit choice made
// by not passing -resume) and durably writes its header line. The parent
// directory is fsynced too: record fsyncs make the *contents* durable,
// but a newly created name lives in the directory, and without the
// directory sync a host crash can lose the whole file — every record
// "durably" journaled into it included.
func createJournal(path string, header journalHeader) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleet: creating journal: %w", err)
	}
	j := &journal{f: f}
	if err := j.append(header); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// syncDir fsyncs a directory, making a just-created entry in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("fleet: opening journal directory: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("fleet: fsyncing journal directory: %w", err)
	}
	return nil
}

// openJournalAppend reopens a journal for appending after loadJournal
// replayed it. A crash mid-append leaves a torn final line, which
// loadJournal skips; appending after it would bury it mid-file, where the
// next load refuses it as corruption. So the file is first cut back to
// end — the end of the last line loadJournal accepted — newline-terminated
// and fsynced.
func openJournalAppend(path string, end int64) (*journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleet: reopening journal: %w", err)
	}
	last := make([]byte, 1)
	if err = f.Truncate(end); err == nil {
		_, err = f.ReadAt(last, end-1)
	}
	if err == nil && last[0] != '\n' {
		_, err = f.Write([]byte{'\n'})
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: cutting journal back to its last whole record: %w", err)
	}
	return &journal{f: f}, nil
}

// append writes v as one JSONL line and fsyncs. The line is written with
// a single Write call so a crash can only truncate the final record,
// never interleave two.
func (j *journal) append(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("fleet: marshaling journal line: %w", err)
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("fleet: writing journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("fleet: fsyncing journal: %w", err)
	}
	return nil
}

// record journals one completed unit.
func (j *journal) record(suite, exp string, unit int, name string, part json.RawMessage) error {
	return j.append(journalRecord{Suite: suite, Exp: exp, Unit: unit, Name: name, Part: part})
}

func (j *journal) close() error { return j.f.Close() }

// loadJournal reads a journal back: the header, every completed-unit
// record, and end, the byte offset just past the last line it accepted. A
// corrupt or truncated final line is tolerated — that is exactly the
// artifact of a crash mid-append, and the unit it would have recorded
// simply reruns — but corruption anywhere earlier is an error: the file
// has been damaged, not merely cut short, and resuming from it could
// silently drop completed units.
func loadJournal(path string) (header journalHeader, records []journalRecord, end int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return journalHeader{}, nil, 0, fmt.Errorf("fleet: reading journal: %w", err)
	}
	// Non-blank lines, each with the offset just past it (and past its
	// newline, if it has one).
	var lines [][]byte
	var ends []int64
	for off := 0; off < len(data); {
		next := len(data)
		if i := bytes.IndexByte(data[off:], '\n'); i >= 0 {
			next = off + i + 1
		}
		if l := bytes.TrimSpace(data[off:next]); len(l) > 0 {
			lines = append(lines, l)
			ends = append(ends, int64(next))
		}
		off = next
	}
	if len(lines) == 0 {
		return journalHeader{}, nil, 0, fmt.Errorf("fleet: journal %s is empty", path)
	}
	if err := json.Unmarshal(lines[0], &header); err != nil || header.Suite == "" {
		return journalHeader{}, nil, 0, fmt.Errorf("fleet: journal %s has no valid header line: %v", path, err)
	}
	if header.Version != journalVersion {
		return journalHeader{}, nil, 0, fmt.Errorf("fleet: journal %s is format version %d, this build reads %d", path, header.Version, journalVersion)
	}
	end = ends[0]
	for i, l := range lines[1:] {
		var rec journalRecord
		if err := json.Unmarshal(l, &rec); err != nil || rec.Exp == "" || rec.Part == nil {
			if i == len(lines)-2 { // final line: crash-truncated append
				break
			}
			return journalHeader{}, nil, 0, fmt.Errorf("fleet: journal %s record %d is corrupt: %v", path, i+1, err)
		}
		if rec.Suite != header.Suite {
			return journalHeader{}, nil, 0, fmt.Errorf("fleet: journal %s record %d belongs to suite %s, header says %s", path, i+1, rec.Suite, header.Suite)
		}
		records = append(records, rec)
		end = ends[i+1]
	}
	return header, records, end, nil
}

// JournalSuite reports the id list and quick flag a journal was written
// under, so `gsbench -resume <journal>` can reconstruct the interrupted
// run without the user restating -run or -quick. The suite-hash
// validation against the current binary's sweep shapes still happens
// inside Run.
func JournalSuite(path string) (ids []string, quick bool, err error) {
	header, _, _, err := loadJournal(path)
	if err != nil {
		return nil, false, err
	}
	return header.IDs, header.Quick, nil
}

// replayJournal decodes records into per-experiment part tables. idIndex
// maps experiment id to its position in the run's id list; units gives
// each experiment's unit count. Records for unknown experiments or
// out-of-range units are rejected — the suite hash should make that
// impossible, so reaching it means the journal is lying about its suite.
func replayJournal(records []journalRecord, idIndex map[string]int, unitCounts []int) (map[int]map[int]experiments.Part, error) {
	parts := make(map[int]map[int]experiments.Part)
	for _, rec := range records {
		exp, ok := idIndex[rec.Exp]
		if !ok {
			return nil, fmt.Errorf("fleet: journal records experiment %q not in this suite", rec.Exp)
		}
		if rec.Unit < 0 || rec.Unit >= unitCounts[exp] {
			return nil, fmt.Errorf("fleet: journal records unit %d of %s, which has %d units", rec.Unit, rec.Exp, unitCounts[exp])
		}
		part, err := experiments.DecodePart(rec.Part)
		if err != nil {
			return nil, fmt.Errorf("fleet: journal part for %s[%d]: %w", rec.Exp, rec.Unit, err)
		}
		if parts[exp] == nil {
			parts[exp] = make(map[int]experiments.Part)
		}
		parts[exp][rec.Unit] = part // duplicate records: last wins, parts are identical by determinism
	}
	return parts, nil
}
