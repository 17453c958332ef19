// Package fleet is the experiment scheduler behind gsbench -j, -journal
// and -fleet. Run flattens a suite into its experiments' units and runs
// them on a fixed set of slots, either in-process — each slot goroutine
// executes units itself — or through a Transport, where each slot feeds
// one worker: a subprocess speaking length-prefixed JSON frames over
// stdin/stdout, or an in-memory chaos worker in tests. Worker crashes,
// hangs and corrupt replies are survived by reassigning the lost units to
// the remaining workers with capped exponential-backoff retry, and
// completed parts can be persisted to an fsynced resume journal.
//
// Determinism is the contract: a unit is a pure function of its spec, so
// any slot count, transport, injected failure schedule and resume point
// renders tables byte-identical to a serial -j1 run. The coordinator
// stores each part at its declared unit index and assembles in declared
// order; which slot (or which attempt, or which process generation)
// produced a part cannot be observed in the output. The golden-fixture
// and chaos tests pin exactly that.
package fleet

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// MaxFrameSize bounds a frame's payload. The largest legitimate frame is
// a Response carrying one experiment table (tens of kilobytes); the bound
// exists so a corrupt length prefix from a misbehaving worker is detected
// as such instead of attempting a multi-gigabyte allocation.
const MaxFrameSize = 16 << 20

// Request asks a worker to execute one experiment unit. Quick rides along
// on every request so the worker holds no per-connection state that a
// respawned replacement would have to be re-told.
type Request struct {
	Exp   string `json:"exp"`
	Unit  int    `json:"unit"`
	Quick bool   `json:"quick"`
}

// Response reports one executed unit. Exactly one of Part or Err is set:
// Part carries experiments.EncodePart bytes; Err carries a contained
// panic (or lookup failure) from the worker, with the unit name and
// stack, so a deterministic unit bug surfaces as that experiment's error
// instead of killing the fleet.
type Response struct {
	Exp  string          `json:"exp"`
	Unit int             `json:"unit"`
	Part json.RawMessage `json:"part,omitempty"`
	Err  string          `json:"err,omitempty"`
}

// WriteFrame marshals v and writes it as one length-prefixed frame: a
// 4-byte big-endian payload length, then the JSON payload. The two
// writes are issued as a single Write call so a frame is never torn by
// an interleaved writer.
func WriteFrame(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("fleet: marshaling frame: %w", err)
	}
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("fleet: frame of %d bytes exceeds MaxFrameSize %d", len(payload), MaxFrameSize)
	}
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("fleet: writing frame: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame and unmarshals it into v.
// io.EOF is returned undecorated when the stream ends cleanly between
// frames (the worker's orderly-shutdown signal); any other failure —
// truncated prefix, oversized or negative length, malformed JSON — is a
// corrupt-frame error the coordinator treats as a worker fault.
func ReadFrame(r io.Reader, v any) error {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("fleet: reading frame length: %w", err)
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n > MaxFrameSize {
		return fmt.Errorf("fleet: corrupt frame length %d (max %d)", n, MaxFrameSize)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return fmt.Errorf("fleet: reading %d-byte frame payload: %w", n, err)
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("fleet: corrupt frame payload: %w", err)
	}
	return nil
}
