package experiments

import (
	"reflect"
	"testing"
)

// TestPartCodecRoundTripIdentity pins the fleet wire/journal contract:
// DecodePart(EncodePart(p)) must be reflect.DeepEqual to p for every Part
// shape the experiments actually produce — row-run parts, note-carrying
// parts, whole-table parts — plus the nil/empty edge cases the contract
// calls out explicitly.
func TestPartCodecRoundTripIdentity(t *testing.T) {
	cases := []struct {
		name string
		part Part
	}{
		{"zero", Part{}},
		{"rows-only", Part{Rows: [][]string{{"32", "1.5", "drained"}, {"64", "2.0", "ok"}}}},
		{"rows-and-notes", Part{
			Rows:  [][]string{{"a,b", `quo"ted`, ""}},
			Notes: []string{"measured under chaos", "second note"},
		}},
		{"whole-table", Part{Table: &Table{
			ID:     "fig1",
			Title:  "SPECfp_rate2000 (peak, modeled) vs CPUs",
			Header: []string{"CPUs", "GS1280"},
			Rows:   [][]string{{"1", "17.1"}},
			Notes:  []string{"note text"},
		}}},
		{"empty-non-nil-slices", Part{
			Rows:  [][]string{},
			Notes: []string{},
			Table: &Table{ID: "x", Rows: [][]string{}},
		}},
		{"empty-row-inside", Part{Rows: [][]string{{}, {"one"}}}},
	}
	for _, tc := range cases {
		b, err := EncodePart(tc.part)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		got, err := DecodePart(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.part) {
			t.Errorf("%s: round trip not identity:\nencoded: %s\ngot:  %#v\nwant: %#v", tc.name, b, got, tc.part)
		}
	}
}

// TestPartCodecRoundTripRealUnits runs one unit of a sweep-style spec and
// one whole-table spec for real and round-trips their parts, so the codec
// is exercised against genuinely produced shapes rather than only
// hand-built literals.
func TestPartCodecRoundTripRealUnits(t *testing.T) {
	for _, id := range []string{"fig1", "fig15"} {
		spec, ok := SpecByID(id)
		if !ok {
			t.Fatalf("missing spec %s", id)
		}
		units := spec.Units(true)
		env := NewEnv(nil)
		env.BeginUnit()
		part := units[0].Run(env)
		b, err := EncodePart(part)
		if err != nil {
			t.Fatalf("%s: encode: %v", id, err)
		}
		got, err := DecodePart(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", id, err)
		}
		if !reflect.DeepEqual(got, part) {
			t.Errorf("%s: round trip not identity for real unit part", id)
		}
	}
}

// TestDecodePartRejectsGarbage: corrupt frames from a misbehaving worker
// must surface as errors, not zero-valued parts.
func TestDecodePartRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"", "{", `{"Rows": 7}`, `{"Unknown": 1}`, "\x00\x01"} {
		if _, err := DecodePart([]byte(bad)); err == nil {
			t.Errorf("DecodePart(%q) = nil error, want failure", bad)
		}
	}
}

// FuzzDecodePart decodes arbitrary bytes as a journaled or transported
// Part; its seed corpus lives in testdata/fuzz. No input may panic, and
// whatever DecodePart accepts must survive EncodePart and a second
// decode reflect.DeepEqual.
func FuzzDecodePart(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePart(data)
		if err != nil {
			return
		}
		b, err := EncodePart(p)
		if err != nil {
			t.Fatalf("EncodePart(%#v): %v", p, err)
		}
		back, err := DecodePart(b)
		if err != nil {
			t.Fatalf("DecodePart(%s) = %v", b, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip not identity:\nencoded %s\ngot  %#v\nwant %#v", b, back, p)
		}
	})
}
