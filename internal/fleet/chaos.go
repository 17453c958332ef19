package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gs1280/internal/experiments"
)

// ChaosOptions configure an injected failure schedule. Probabilities are
// per-event (per spawn, or per received request); fates are drawn from a
// per-worker rand.Rand seeded by (Seed, slot, generation), so the
// schedule a given worker incarnation follows is deterministic no matter
// how the coordinator's goroutines interleave.
type ChaosOptions struct {
	// Lookup resolves experiment ids for the underlying healthy
	// execution; nil means the paper registry.
	Lookup Lookup
	// Seed selects the failure schedule.
	Seed int64
	// PCrash kills the worker after it has executed the unit but before
	// the reply is delivered — the "node died mid-campaign" case where
	// the work is done and lost, and the rerun must be bit-identical.
	PCrash float64
	// PHang makes the worker sit on the unit forever (until killed);
	// only a coordinator deadline recovers it.
	PHang float64
	// PCorrupt makes the worker reply with a garbage frame: undecodable
	// part bytes, or a response claiming the wrong unit.
	PCorrupt float64
	// PStall delays the reply by a few milliseconds without failing —
	// jitter the deadline logic must tolerate.
	PStall float64
	// PSpawnFail makes Spawn itself fail, exercising the respawn
	// backoff and slot-retirement path.
	PSpawnFail float64
	// MaxFailures bounds the total injected failures (all kinds, fleet
	// wide); once spent, the transport behaves healthily. This is what
	// guarantees every schedule terminates: with the budget exhausted and
	// at least one live slot, the remaining units complete normally.
	MaxFailures int64
}

// ChaosTransport is an in-memory Transport whose workers crash, hang,
// stall, or return corrupt frames on a seeded schedule. On the healthy
// path it executes units through executeUnit, exactly as a gsbench
// -worker subprocess does, so with every probability at zero it is a
// healthy in-memory worker. It keeps per-unit execution counts so tests
// can assert no unit was lost and retries stayed within the
// injected-failure budget.
type ChaosTransport struct {
	opts    ChaosOptions
	lookup  Lookup
	budget  atomic.Int64
	mu      sync.Mutex
	gens    map[int]int64  // spawn generation per slot
	execs   map[string]int // successful unit executions by "exp[unit]"
	spawned int
	crashes int
	hangs   int
	corrupt int
}

// NewChaosTransport builds a transport following the seeded schedule.
func NewChaosTransport(opts ChaosOptions) *ChaosTransport {
	t := &ChaosTransport{
		opts:   opts,
		lookup: orRegistry(opts.Lookup),
		gens:   make(map[int]int64),
		execs:  make(map[string]int),
	}
	t.budget.Store(opts.MaxFailures)
	return t
}

// takeFailure claims one unit of failure budget.
func (t *ChaosTransport) takeFailure() bool {
	for {
		n := t.budget.Load()
		if n <= 0 {
			return false
		}
		if t.budget.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// Executions returns how many times each unit ran to completion
// (including runs whose reply was crashed away), keyed "exp[unit]".
func (t *ChaosTransport) Executions() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int, len(t.execs))
	for k, v := range t.execs {
		out[k] = v
	}
	return out
}

// InjectedFailures reports how much of the failure budget was spent.
func (t *ChaosTransport) InjectedFailures() int64 { return t.opts.MaxFailures - t.budget.Load() }

// Stats reports spawn and per-kind injection counts for test logging.
func (t *ChaosTransport) Stats() (spawned, crashes, hangs, corrupt int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spawned, t.crashes, t.hangs, t.corrupt
}

// Spawn starts a chaos worker for slot, or fails by schedule.
func (t *ChaosTransport) Spawn(_ context.Context, slot int) (Worker, error) {
	t.mu.Lock()
	gen := t.gens[slot]
	t.gens[slot]++
	t.spawned++
	t.mu.Unlock()
	mix := uint64(t.opts.Seed) ^ uint64(slot+1)*0x9e3779b97f4a7c15 ^ uint64(gen+1)*0x2545f4914f6cdd1d
	rng := rand.New(rand.NewSource(int64(mix)))
	if rng.Float64() < t.opts.PSpawnFail && t.takeFailure() {
		return nil, fmt.Errorf("chaos: injected spawn failure (slot %d gen %d)", slot, gen)
	}
	w := &chaosWorker{
		transport: t,
		rng:       rng,
		reqCh:     make(chan Request),
		respCh:    make(chan Response, 1),
		killed:    make(chan struct{}),
	}
	go w.loop()
	return w, nil
}

// errWorkerKilled reports an operation on a worker that has been torn
// down (by Kill, or by an injected crash).
var errWorkerKilled = errors.New("fleet: worker killed")

// chaosWorker executes units on a dedicated goroutine, mirroring a
// subprocess worker's one-request-at-a-time protocol: Send hands the
// goroutine a request, Recv blocks for its response, and Kill makes both
// fail promptly (the in-memory analog of the process dying and its pipes
// closing). Before each reply it draws a fate.
type chaosWorker struct {
	transport *ChaosTransport
	rng       *rand.Rand
	reqCh     chan Request
	respCh    chan Response
	killed    chan struct{}
	killOnce  sync.Once
}

type fate int

const (
	fateHealthy fate = iota
	fateCrash
	fateHang
	fateCorrupt
	fateStall
)

// draw picks the next event's fate; failure fates also need budget.
func (w *chaosWorker) draw() fate {
	o := w.transport.opts
	p := w.rng.Float64()
	switch {
	case p < o.PCrash:
		if w.transport.takeFailure() {
			return fateCrash
		}
	case p < o.PCrash+o.PHang:
		if w.transport.takeFailure() {
			return fateHang
		}
	case p < o.PCrash+o.PHang+o.PCorrupt:
		if w.transport.takeFailure() {
			return fateCorrupt
		}
	case p < o.PCrash+o.PHang+o.PCorrupt+o.PStall:
		return fateStall // stalls are not failures and spend no budget
	}
	return fateHealthy
}

func (w *chaosWorker) loop() {
	env := experiments.NewEnv(experiments.NewMemo()) // a worker process's own memo
	t := w.transport
	for {
		var req Request
		select {
		case req = <-w.reqCh:
		case <-w.killed:
			return
		}
		f := w.draw()
		var resp Response
		if f != fateHang {
			// Crash included: the unit runs to completion — the work is
			// done — and then the worker dies with the reply undelivered,
			// so the coordinator must redo it elsewhere, identically.
			resp = executeUnit(t.lookup, env, req)
			if resp.Err == "" {
				t.mu.Lock()
				t.execs[fmt.Sprintf("%s[%d]", req.Exp, req.Unit)]++
				t.mu.Unlock()
			}
		}
		switch f {
		case fateCrash:
			t.mu.Lock()
			t.crashes++
			t.mu.Unlock()
			w.Kill()
			return
		case fateHang:
			t.mu.Lock()
			t.hangs++
			t.mu.Unlock()
			<-w.killed
			return
		case fateCorrupt:
			t.mu.Lock()
			t.corrupt++
			t.mu.Unlock()
			if w.rng.Intn(2) == 0 {
				resp.Part = json.RawMessage(`{"Rows": "not a row list"`) // truncated garbage
			} else {
				resp.Unit = req.Unit + 1000 // confused worker: wrong unit
			}
		case fateStall:
			select {
			case <-time.After(time.Duration(1+w.rng.Intn(5)) * time.Millisecond):
			case <-w.killed:
				return
			}
		}
		select {
		case w.respCh <- resp:
		case <-w.killed:
			return
		}
	}
}

func (w *chaosWorker) Send(req Request) error {
	select {
	case w.reqCh <- req:
		return nil
	case <-w.killed:
		return errWorkerKilled
	}
}

func (w *chaosWorker) Recv() (Response, error) {
	select {
	case resp := <-w.respCh:
		return resp, nil
	case <-w.killed:
		return Response{}, errWorkerKilled
	}
}

func (w *chaosWorker) Kill() {
	w.killOnce.Do(func() { close(w.killed) })
}
