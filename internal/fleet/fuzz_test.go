package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
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
// appending, may not lie past the end of the file.
func FuzzLoadJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, end, err := loadJournal(path)
		if err == nil && (end < 0 || end > int64(len(data))) {
			t.Fatalf("loadJournal accepted end offset %d of a %d-byte file", end, len(data))
		}
	})
}
