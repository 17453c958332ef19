package fleet

import (
	"io"

	"gs1280/internal/experiments"
)

// WorkerMain is the body of `gsbench -worker`: a frame-at-a-time loop
// reading Requests from r and writing Responses to w until the
// coordinator closes the request stream (clean io.EOF) or a frame is
// unreadable. One experiments.Env is reused across the worker's units —
// the same engine pooling an in-process slot gets — with a memo of the
// worker's own.
//
// Unit panics are contained by executeUnit and reported in-band as
// Response.Err; only transport-level failures (unreadable stdin,
// unwritable stdout) end the loop with an error, at which point the
// process should exit nonzero and let the coordinator respawn it.
func WorkerMain(r io.Reader, w io.Writer, lookup Lookup) error {
	lookup = orRegistry(lookup)
	env := experiments.NewEnv(experiments.NewMemo())
	for {
		var req Request
		if err := ReadFrame(r, &req); err != nil {
			if err == io.EOF {
				return nil // coordinator hung up: orderly shutdown
			}
			return err
		}
		if err := WriteFrame(w, executeUnit(lookup, env, req)); err != nil {
			return err
		}
	}
}
