package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// The decoders below read bytes that crossed a process or crash boundary:
// a worker's reply frame and a resume journal. Their seed corpora live in
// testdata/fuzz, so go test replays them; go test -fuzz searches past
// them.

// FuzzReadFrame reads arbitrary bytes as a worker's reply. No input may
// panic, and a reply that WriteFrame encoded must read back unchanged.
// The reply read from the raw input is encoded once first: WriteFrame
// compacts a Part's raw JSON, so only from then on are the bytes
// canonical.
func FuzzReadFrame(f *testing.F) {
	roundTrip := func(t *testing.T, r Response) Response {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteFrame(&buf, r); err != nil {
			t.Fatalf("WriteFrame(%+v): %v", r, err)
		}
		var back Response
		if err := ReadFrame(&buf, &back); err != nil {
			t.Fatalf("ReadFrame of WriteFrame(%+v) = %v; frame %q", r, err, buf.Bytes())
		}
		return back
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Response
		if ReadFrame(bytes.NewReader(data), &r) != nil {
			return
		}
		once := roundTrip(t, r)
		if twice := roundTrip(t, once); !reflect.DeepEqual(twice, once) {
			t.Fatalf("frame does not read back unchanged:\nwrote %+v\nread  %+v", once, twice)
		}
	})
}

// FuzzLoadJournal loads arbitrary bytes as a resume journal. No input may
// panic, and the end offset it accepts, where an in-place resume starts
// appending, may not lie past the end of the file. A resume from what it
// accepts must keep it: reopening the file at end and journaling one more
// unit, the reload returns the same header, the accepted records and then
// the new one, and an end at the file's size.
func FuzzLoadJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		header, records, end, err := loadJournal(path)
		if err != nil {
			return
		}
		if end < 0 || end > int64(len(data)) {
			t.Fatalf("loadJournal accepted end offset %d of a %d-byte file", end, len(data))
		}

		j, err := openJournalAppend(path, end)
		if err != nil {
			t.Fatalf("reopening at accepted end %d: %v", end, err)
		}
		added := journalRecord{Suite: header.Suite, Exp: "resumed", Unit: 1, Name: "resumed[1]",
			Part: json.RawMessage(`{"rows":[["x"]]}`)}
		if err := j.record(added.Suite, added.Exp, added.Unit, added.Name, added.Part); err != nil {
			t.Fatal(err)
		}
		if err := j.close(); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		header2, records2, end2, err := loadJournal(path)
		if err != nil {
			t.Fatalf("resumed journal no longer loads: %v\nbefore: %q\nafter:  %q", err, data, after)
		}
		if want := append(slices.Clone(records), added); !reflect.DeepEqual(header2, header) || !reflect.DeepEqual(records2, want) {
			t.Fatalf("resumed journal reloads as %+v %+v, want %+v %+v\nafter: %q", header2, records2, header, want, after)
		}
		if end2 != int64(len(after)) {
			t.Fatalf("resumed journal's end %d is not its size %d: %q", end2, len(after), after)
		}
	})
}
