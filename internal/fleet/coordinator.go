package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"gs1280/internal/experiments"
)

// Defaults for the robustness knobs. Retry caps are deliberately small:
// units are deterministic, so a unit that fails twice on healthy workers
// is overwhelmingly likely to fail forever, and the cap is what turns a
// poisoned unit into a reported error instead of an infinite loop.
const (
	DefaultMaxUnitAttempts  = 3
	DefaultMaxSpawnAttempts = 4
	DefaultSpawnBackoff     = 50 * time.Millisecond
	maxSpawnBackoff         = 2 * time.Second
)

// Options configure a Run.
type Options struct {
	// Workers is the number of slots, the concurrent unit executors. Zero
	// or negative means runtime.GOMAXPROCS(0). A transported slot whose
	// worker dies respawns a replacement; a slot that cannot respawn
	// retires, degrading the fleet — the run completes on whatever slots
	// survive, down to one.
	Workers int
	// Quick selects the reduced sweeps (see package experiments).
	Quick bool
	// Transport spawns workers. Nil runs every unit in-process, on the
	// slot goroutines themselves (see Run).
	Transport Transport
	// Lookup resolves experiment ids; nil means the paper registry.
	// It must agree with what the workers execute (ProcTransport workers
	// always use the registry).
	Lookup Lookup
	// JournalPath, if non-empty, records every completed unit to an
	// fsynced JSONL journal so an interrupted run can resume. When it
	// names the same file as ResumeFrom, the journal is appended to;
	// otherwise it is created fresh (re-recording any resumed units, so
	// the new journal is self-contained).
	JournalPath string
	// ResumeFrom, if non-empty, replays a journal from a previous run of
	// this exact suite (validated by suite hash): journaled units are not
	// re-executed. The interrupted run's flags must match — a different
	// id list, quick setting or sweep shape is rejected.
	ResumeFrom string
	// UnitTimeout is the per-unit deadline. A worker that holds a unit
	// longer is declared hung, killed, and its unit reassigned. Zero
	// means no deadline. It needs a Transport: an in-process unit cannot
	// be killed.
	UnitTimeout time.Duration
	// MaxUnitAttempts caps how many workers a unit is offered before the
	// experiment reports failure. Zero means DefaultMaxUnitAttempts.
	MaxUnitAttempts int
	// MaxSpawnAttempts caps consecutive spawn failures per slot before
	// the slot retires. Zero means DefaultMaxSpawnAttempts.
	MaxSpawnAttempts int
	// SpawnBackoff is the initial respawn backoff; it doubles per
	// consecutive failure, capped at 2s. Zero means DefaultSpawnBackoff.
	SpawnBackoff time.Duration
	// OnUnit, if non-nil, is called after every completed unit. Calls are
	// serialized on a dedicated goroutine in completion order, off the
	// coordinator lock — a slow progress sink delays reporting, never the
	// slots. All callbacks return before Run does.
	OnUnit func(UnitDone)
}

// UnitDone describes one completed unit for progress reporting.
type UnitDone struct {
	Experiment string        // experiment id, e.g. "fig15"
	Unit       string        // unit name, e.g. "fig15[GS1280/32P,k=8]"
	Done       int           // units completed so far, suite-wide
	Total      int           // total units in the suite
	Elapsed    time.Duration // this unit's wall-clock
}

// Result is one experiment's outcome. Results are returned in request
// order regardless of completion order.
type Result struct {
	ID    string
	Table *experiments.Table // nil when Err is set
	Err   error              // unknown id, a unit failure, or the context's error if cancelled
	Units int                // number of units the experiment split into
	// Work sums the wall-clock of the experiment's units — the cost a
	// serial run would pay. Elapsed spans the first unit starting to the
	// last unit being accounted for. Work/Elapsed approximates the
	// parallel speed-up this experiment saw.
	Work    time.Duration
	Elapsed time.Duration
}

// expState tracks one experiment through a run. Mutable fields are
// guarded by the coordinator mutex (gslint concur checks the
// annotations; spec and units are immutable after construction).
type expState struct {
	spec  experiments.Spec
	units []experiments.Unit
	//gs:guardedby mu
	parts []experiments.Part
	// settled marks the units replayed from a resume journal, which are
	// never dispatched.
	//gs:guardedby mu
	settled []bool
	//gs:guardedby mu
	attempts []int
	//gs:guardedby mu
	remaining int
	//gs:guardedby mu
	err error
	// start is when the experiment's first unit started; zero until then.
	//gs:guardedby mu
	start time.Time
	//gs:guardedby mu
	work time.Duration
}

type job struct{ exp, unit int }

// coord is one Run's shared state.
type coord struct {
	opts    Options
	lookup  Lookup
	suite   string
	ids     []string
	states  []*expState
	results []Result

	mu     sync.Mutex
	queue  chan job
	doneCh chan struct{} // closed when every job is accounted for
	//gs:guardedby mu
	outstanding int
	//gs:guardedby mu
	doneUnits  int
	totalUnits int
	//gs:guardedby mu
	liveSlots int
	jnl       *journal
	//gs:guardedby mu
	jnlErr     error
	progressCh chan UnitDone
}

// Run executes the experiments named by ids on opts.Workers slots and
// returns one Result per id in order. Unknown ids are reported in their
// Result.Err without aborting the rest of the suite.
//
// With a nil Transport each slot runs units in-process on its own
// goroutine, reusing one experiments.Env; the slots share one
// experiments.Memo, created per call. There is no deadline and no
// retry: a running unit cannot be killed, and it is deterministic, so a
// panic — the only in-process failure — is that experiment's Err.
//
// With a Transport, worker crashes, hangs and corrupt frames are retried
// on surviving workers with capped attempts, while a unit panic inside a
// healthy worker is reported without retry.
//
// Either way, completed units are journaled before being acknowledged,
// and the rendered tables are byte-identical to a serial run, whatever
// the slot count, transport or failure schedule. Cancelling ctx starts no
// further unit; in-process units already running finish and are recorded
// before Run returns. Unfinished experiments carry the context's error,
// which Run also returns.
func Run(ctx context.Context, ids []string, opts Options) ([]Result, error) {
	if opts.Transport == nil && opts.UnitTimeout > 0 {
		return nil, errors.New("fleet: UnitTimeout needs a Transport: an in-process unit cannot be killed")
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxUnitAttempts <= 0 {
		opts.MaxUnitAttempts = DefaultMaxUnitAttempts
	}
	if opts.MaxSpawnAttempts <= 0 {
		opts.MaxSpawnAttempts = DefaultMaxSpawnAttempts
	}
	if opts.SpawnBackoff <= 0 {
		opts.SpawnBackoff = DefaultSpawnBackoff
	}

	c := &coord{
		opts:      opts,
		lookup:    orRegistry(opts.Lookup),
		ids:       ids,
		states:    make([]*expState, len(ids)),
		results:   make([]Result, len(ids)),
		liveSlots: opts.Workers,
	}
	if opts.JournalPath != "" || opts.ResumeFrom != "" {
		c.suite = SuiteHash(ids, opts.Quick, c.lookup)
	}

	idIndex := make(map[string]int, len(ids))
	unitCounts := make([]int, len(ids))
	for i, id := range ids {
		c.results[i].ID = id
		spec, ok := c.lookup(id)
		if !ok {
			c.results[i].Err = fmt.Errorf("fleet: unknown experiment id %q (see experiments.IDs)", id)
			continue
		}
		units := spec.Units(opts.Quick)
		c.states[i] = &expState{
			spec:      spec,
			units:     units,
			parts:     make([]experiments.Part, len(units)),
			settled:   make([]bool, len(units)),
			attempts:  make([]int, len(units)),
			remaining: len(units),
		}
		c.results[i].Units = len(units)
		idIndex[id] = i
		unitCounts[i] = len(units)
	}

	// Resume: replay the journal's completed units into the part tables
	// so only the missing ones are dispatched.
	var resumedRecords []journalRecord
	var resumedEnd int64
	if opts.ResumeFrom != "" {
		header, records, end, err := loadJournal(opts.ResumeFrom)
		if err != nil {
			return nil, err
		}
		if header.Suite != c.suite {
			return nil, fmt.Errorf("fleet: journal %s was recorded for suite %s (ids %v, quick=%t); this run is suite %s — resume must rerun the identical suite",
				opts.ResumeFrom, header.Suite, header.IDs, header.Quick, c.suite)
		}
		replayed, err := replayJournal(records, idIndex, unitCounts)
		if err != nil {
			return nil, err
		}
		// Pre-concurrency, so the lock is uncontended; holding it anyway
		// keeps "guarded fields are only touched under mu" literally
		// true instead of phase-dependent.
		c.mu.Lock()
		for exp, st := range c.states {
			if st == nil {
				continue
			}
			for unit, part := range replayed[exp] {
				st.parts[unit] = part
				st.settled[unit] = true
				st.remaining--
			}
		}
		c.mu.Unlock()
		resumedRecords, resumedEnd = records, end
	}

	// Journal the run. A fresh journal re-records resumed units (in
	// deterministic id/unit order) so it is self-contained even when
	// resuming from a different file.
	if opts.JournalPath != "" {
		var err error
		if opts.JournalPath == opts.ResumeFrom {
			c.jnl, err = openJournalAppend(opts.JournalPath, resumedEnd)
		} else {
			c.jnl, err = createJournal(opts.JournalPath, journalHeader{
				Version: journalVersion, Suite: c.suite, IDs: ids, Quick: opts.Quick,
			})
			if err == nil && len(resumedRecords) > 0 {
				c.mu.Lock()
				for exp, st := range c.states {
					if st == nil {
						continue
					}
					for unit := range st.units {
						if !st.settled[unit] {
							continue
						}
						encoded, encErr := experiments.EncodePart(st.parts[unit])
						if encErr != nil {
							err = encErr
							break
						}
						if err = c.jnl.record(c.suite, ids[exp], unit, st.units[unit].Name, encoded); err != nil {
							break
						}
					}
				}
				c.mu.Unlock()
			}
		}
		if err != nil {
			return nil, err
		}
		defer c.jnl.close()
	}

	var jobs []job
	c.mu.Lock()
	for exp, st := range c.states {
		if st == nil {
			continue
		}
		for unit := range st.units {
			if !st.settled[unit] {
				jobs = append(jobs, job{exp, unit})
			}
		}
	}
	c.totalUnits = len(jobs)
	c.outstanding = len(jobs)
	c.mu.Unlock()

	if len(jobs) > 0 {
		c.queue = make(chan job, len(jobs))
		for _, j := range jobs {
			c.queue <- j
		}
		c.doneCh = make(chan struct{})

		// Progress events drain on a dedicated goroutine, off the
		// coordinator lock: account enqueues under the lock, so Done
		// counts arrive in order, and the buffer holds every job's one
		// event, so the send never blocks.
		var progressDone chan struct{}
		if opts.OnUnit != nil {
			c.progressCh = make(chan UnitDone, len(jobs))
			progressDone = make(chan struct{})
			go func() {
				defer close(progressDone)
				for ev := range c.progressCh {
					opts.OnUnit(ev)
				}
			}()
		}

		// The run's memo: in-process slots share it, so a measurement one
		// unit completed is served to every later unit that keys it.
		memo := experiments.NewMemo()
		var wg sync.WaitGroup
		for slot := 0; slot < opts.Workers; slot++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				if opts.Transport == nil {
					c.runLocal(ctx, memo)
				} else {
					c.runSlot(ctx, slot)
				}
			}(slot)
		}
		wg.Wait()
		if c.progressCh != nil {
			close(c.progressCh)
			<-progressDone
		}
	}

	// Assemble in id order. Which worker, attempt, process generation or
	// resume produced each part is invisible here: parts sit at their
	// declared indices and merge in declared order. Every slot goroutine
	// has joined, so the lock is uncontended — held for the guarded-field
	// discipline, released on return.
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		for i, st := range c.states {
			if st != nil && st.remaining > 0 && c.results[i].Err == nil {
				c.results[i].Err = err
			}
		}
	}
	var fleetErr error
	if ctx.Err() == nil && c.outstanding > 0 {
		fleetErr = fmt.Errorf("fleet: all %d worker slots retired with %d units unfinished", c.opts.Workers, c.outstanding)
	}
	for i, st := range c.states {
		if st == nil || c.results[i].Err != nil {
			continue
		}
		switch {
		case st.err != nil:
			c.results[i].Err = st.err
		case st.remaining > 0:
			c.results[i].Err = fleetErr
		default:
			c.results[i].Table = st.spec.Assemble(c.opts.Quick, st.parts)
			c.results[i].Work = st.work
		}
	}
	if err := ctx.Err(); err != nil {
		return c.results, err
	}
	if fleetErr != nil {
		return c.results, fleetErr
	}
	return c.results, c.jnlErr
}

// runSlot is one worker slot's lifecycle: claim a job, make sure a live
// worker exists (spawning with exponential backoff), dispatch, and
// classify the outcome. Any transport-level fault — send failure, recv
// failure, corrupt or mismatched response, deadline blown — kills the
// worker, requeues the unit for a (possibly different) worker, and
// charges one attempt. The slot retires after MaxSpawnAttempts
// consecutive spawn failures; the fleet degrades to the surviving slots.
func (c *coord) runSlot(ctx context.Context, slot int) {
	var w Worker
	defer func() {
		if w != nil {
			w.Kill()
		}
		c.mu.Lock()
		c.liveSlots--
		c.mu.Unlock()
	}()
	spawnFails := 0
	backoff := c.opts.SpawnBackoff
	for {
		j, ok := c.next(ctx)
		if !ok {
			return
		}

		for w == nil {
			nw, err := c.opts.Transport.Spawn(ctx, slot)
			if err == nil {
				w = nw
				spawnFails = 0
				backoff = c.opts.SpawnBackoff
				break
			}
			spawnFails++
			if spawnFails >= c.opts.MaxSpawnAttempts {
				// This slot cannot field a worker; hand the claimed job
				// back for the survivors and retire.
				c.requeue(j, fmt.Errorf("fleet: slot %d retired after %d spawn failures: %w", slot, spawnFails, err))
				return
			}
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				c.requeue(j, ctx.Err())
				return
			}
			if backoff *= 2; backoff > maxSpawnBackoff {
				backoff = maxSpawnBackoff
			}
		}

		start := c.begin(j)
		req := Request{Exp: c.ids[j.exp], Unit: j.unit, Quick: c.opts.Quick}
		part, verdict, err := c.dispatch(ctx, w, req)
		elapsed := time.Since(start)
		switch verdict {
		case unitOK, unitErrored:
			// unitErrored is a contained panic or lookup failure inside a
			// healthy worker: deterministic, so retrying would just
			// repeat it.
			c.settle(j, part, err, elapsed)
		case workerFault:
			w.Kill()
			w = nil
			c.chargeAttempt(j, err, elapsed)
		}
	}
}

// runLocal is an in-process slot: it runs each claimed unit itself,
// reusing one Env, on the run's memo, across them. It has no deadline,
// because a running unit cannot be killed — and units are deterministic,
// so a retry of a hung unit would hang the same way. A panic is contained
// and permanent.
func (c *coord) runLocal(ctx context.Context, memo *experiments.Memo) {
	env := experiments.NewEnv(memo)
	for {
		j, ok := c.next(ctx)
		if !ok {
			return
		}
		start := c.begin(j)
		part, err := runContained(env, c.states[j.exp].units[j.unit])
		if err != nil {
			err = fmt.Errorf("fleet: %w", err)
		}
		c.settle(j, part, err, time.Since(start))
	}
}

// next claims a queued job. It reports false once every job is accounted
// for or ctx is done. Go picks at random among ready select cases, so ctx
// is checked again after a claim: no unit starts after cancellation.
func (c *coord) next(ctx context.Context) (job, bool) {
	select {
	case <-c.doneCh:
		return job{}, false
	case <-ctx.Done():
		return job{}, false
	case j := <-c.queue:
		return j, ctx.Err() == nil
	}
}

// begin marks a unit started and returns its start time, which is also
// its experiment's if it is the first to start.
func (c *coord) begin(j job) time.Time {
	st := c.states[j.exp]
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	if st.start.IsZero() {
		st.start = start
	}
	return start
}

type verdict int

const (
	unitOK verdict = iota
	unitErrored
	workerFault
)

// dispatch sends one request and waits for its response under the unit
// deadline, classifying the outcome.
func (c *coord) dispatch(ctx context.Context, w Worker, req Request) (experiments.Part, verdict, error) {
	if err := w.Send(req); err != nil {
		return experiments.Part{}, workerFault, fmt.Errorf("sending %s[%d]: %w", req.Exp, req.Unit, err)
	}
	type recvResult struct {
		resp Response
		err  error
	}
	recvCh := make(chan recvResult, 1)
	go func() {
		resp, err := w.Recv()
		recvCh <- recvResult{resp, err}
	}()
	var deadline <-chan time.Time
	if c.opts.UnitTimeout > 0 {
		t := time.NewTimer(c.opts.UnitTimeout)
		defer t.Stop()
		deadline = t.C
	}
	var rr recvResult
	select {
	case rr = <-recvCh:
	case <-deadline:
		// Hung worker: the caller kills it, which unblocks the receiver
		// goroutine; its late result lands in the buffered channel and is
		// collected by the garbage collector with it.
		return experiments.Part{}, workerFault, fmt.Errorf("%s[%d]: no response within %v (worker hung)", req.Exp, req.Unit, c.opts.UnitTimeout)
	case <-ctx.Done():
		return experiments.Part{}, workerFault, ctx.Err()
	}
	if rr.err != nil {
		return experiments.Part{}, workerFault, fmt.Errorf("%s[%d]: %w", req.Exp, req.Unit, rr.err)
	}
	resp := rr.resp
	if resp.Exp != req.Exp || resp.Unit != req.Unit {
		return experiments.Part{}, workerFault, fmt.Errorf("%s[%d]: worker answered for %s[%d] (corrupt or confused worker)", req.Exp, req.Unit, resp.Exp, resp.Unit)
	}
	if resp.Err != "" {
		return experiments.Part{}, unitErrored, fmt.Errorf("fleet: %s", resp.Err)
	}
	part, err := experiments.DecodePart(resp.Part)
	if err != nil {
		return experiments.Part{}, workerFault, fmt.Errorf("%s[%d]: %w", req.Exp, req.Unit, err)
	}
	return part, unitOK, nil
}

// settle records a unit that ran to an outcome. On success the part is
// stored at its declared index and journaled (fsynced) before the unit is
// acknowledged; a failed unit fails its experiment, and its siblings
// still run.
func (c *coord) settle(j job, part experiments.Part, err error, elapsed time.Duration) {
	st := c.states[j.exp]
	c.mu.Lock()
	defer c.mu.Unlock()
	st.work += elapsed
	if err == nil {
		st.parts[j.unit] = part
		if c.jnl != nil && c.jnlErr == nil {
			encoded, jerr := experiments.EncodePart(part)
			if jerr == nil {
				jerr = c.jnl.record(c.suite, c.ids[j.exp], j.unit, st.units[j.unit].Name, encoded)
			}
			if jerr != nil {
				c.jnlErr = jerr // keep computing; surface the lost durability at return
			}
		}
	}
	c.account(j, err, elapsed)
}

// chargeAttempt handles a worker fault on a unit: requeue for another
// worker, or — past the attempt cap — convert to a permanent failure.
func (c *coord) chargeAttempt(j job, err error, elapsed time.Duration) {
	st := c.states[j.exp]
	c.mu.Lock()
	defer c.mu.Unlock()
	st.attempts[j.unit]++
	st.work += elapsed
	if st.attempts[j.unit] >= c.opts.MaxUnitAttempts {
		c.account(j, fmt.Errorf("fleet: unit %s failed %d times, last: %w", st.units[j.unit].Name, st.attempts[j.unit], err), elapsed)
		return
	}
	// The queue was sized for every dispatchable job and this one is
	// currently dequeued, so the send cannot block.
	c.queue <- j
}

// requeue returns a claimed-but-undispatched job to the queue when a slot
// retires or is cancelled; the last live slot converts it into a
// permanent failure instead, so the run cannot strand jobs in a queue no
// one reads.
func (c *coord) requeue(j job, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.liveSlots <= 1 {
		c.account(j, fmt.Errorf("fleet: unit %s undispatchable: %w", c.states[j.exp].units[j.unit].Name, err), 0)
		return
	}
	c.queue <- j
}

// account (called with mu held) retires one job for good: a non-nil err
// fails its experiment (the first failure wins), the experiment's Elapsed
// stops when its last unit is accounted for, and the progress event is
// enqueued. The final job closes doneCh.
//
//gs:holds mu
func (c *coord) account(j job, err error, elapsed time.Duration) {
	st := c.states[j.exp]
	if err != nil && st.err == nil {
		st.err = err
	}
	if st.remaining--; st.remaining == 0 && !st.start.IsZero() {
		c.results[j.exp].Elapsed = time.Since(st.start)
	}
	c.outstanding--
	c.doneUnits++
	if c.progressCh != nil {
		c.progressCh <- UnitDone{
			Experiment: c.ids[j.exp],
			Unit:       st.units[j.unit].Name,
			Done:       c.doneUnits,
			Total:      c.totalUnits,
			Elapsed:    elapsed,
		}
	}
	if c.outstanding == 0 {
		close(c.doneCh)
	}
}
