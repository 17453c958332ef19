package fleet

import (
	"context"
	"fmt"
	"runtime/debug"

	"gs1280/internal/experiments"
)

// Worker is one unit executor the coordinator can dispatch to. A worker
// processes requests one at a time: Send hands it a unit, Recv blocks for
// the matching response. Kill tears the worker down; it must cause a
// blocked Recv to return promptly (for a subprocess, killing closes its
// stdout), must be safe to call concurrently with Send/Recv, and must be
// idempotent. After any Send/Recv error or a Kill, the worker is dead and
// the coordinator spawns a replacement.
type Worker interface {
	Send(Request) error
	Recv() (Response, error)
	Kill()
}

// Transport spawns workers. slot identifies the coordinator's worker
// slot (0-based) for logging and for deterministic chaos schedules; a
// respawned replacement reuses its predecessor's slot.
type Transport interface {
	Spawn(ctx context.Context, slot int) (Worker, error)
}

// Lookup resolves an experiment id to its Spec; nil means the paper
// registry, experiments.SpecByID.
type Lookup func(id string) (experiments.Spec, bool)

func orRegistry(l Lookup) Lookup {
	if l == nil {
		return experiments.SpecByID
	}
	return l
}

// executeUnit runs one requested unit with panic containment and returns
// the wire response. Shared by both worker implementations, the gsbench
// -worker subprocess loop and the chaos transport's healthy path, so the
// two agree on semantics bit for bit.
func executeUnit(lookup Lookup, env *experiments.Env, req Request) Response {
	resp := Response{Exp: req.Exp, Unit: req.Unit}
	spec, ok := lookup(req.Exp)
	if !ok {
		resp.Err = fmt.Sprintf("unknown experiment id %q", req.Exp)
		return resp
	}
	units := spec.Units(req.Quick)
	if req.Unit < 0 || req.Unit >= len(units) {
		resp.Err = fmt.Sprintf("unit index %d out of range for %s (%d units)", req.Unit, req.Exp, len(units))
		return resp
	}
	part, err := runContained(env, units[req.Unit])
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	encoded, err := experiments.EncodePart(part)
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	resp.Part = encoded
	return resp
}

// runContained executes one unit, converting a panic into an error that
// names the unit and carries the stack. The worker or in-process slot
// survives to take the next unit; the coordinator surfaces the error as
// the experiment's Result.Err without retrying (a unit is deterministic,
// so a panic would simply repeat).
func runContained(env *experiments.Env, u experiments.Unit) (part experiments.Part, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("unit %s panicked: %v\n%s", u.Name, r, debug.Stack())
		}
	}()
	env.BeginUnit()
	return u.Run(env), nil
}
