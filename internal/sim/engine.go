package sim

import (
	"fmt"
	"math/bits"
)

// The pending-event store is a two-level hierarchical time wheel with a
// far-future heap fallback, replacing the PR 3 binary heap. Nearly every
// event a GS1280 simulation schedules is a short fixed delay — a 13 ns
// router pipeline, a 6 ns ejection, a ~23 ns serialization slot, a 60 ns
// RDRAM access — which is the textbook case for a time wheel: insert and
// dispatch become amortized O(1) instead of the heap's O(log n) sift with
// n in the tens of thousands during saturation transients.
//
// Geometry (all times are integer picoseconds):
//
//	level 0: 1024 buckets of 256 ps  — one 262 ns "slot" of near future
//	level 1:  256 slots  of 262 ns   — a ~67 us horizon
//	far:     a (time, seq) min-heap  — anything beyond the horizon
//
// Level 0 always maps the level-1 slot that contains the dispatch cursor.
// Each level-0 bucket is a doubly-linked list kept sorted by (time, seq);
// level-1 buckets are unsorted (order is restored when a slot is cascaded
// into level 0). When level 0 drains, the next populated slot — from
// level 1 or the far heap, whichever is earlier — is opened and its events
// cascade down. An event therefore moves at most twice (far -> wheel,
// level 1 -> level 0) before dispatch, and dispatch itself is a bitmap
// scan plus a list-head pop.
//
// Determinism is bit-exact with the old heap: every schedule consumes one
// seq from the same counter, level-0 lists are ordered by (time, seq), and
// the far heap compares (time, seq) — so the global dispatch order is the
// lexicographic (time, seq) order, identical event for event. The
// differential test in wheel_diff_test.go pins this against a reference
// heap across randomized schedules, cancels and horizon crossings.
const (
	granShift = 8                  // level-0 bucket width: 2^8 ps = 256 ps
	l0Bits    = 10                 // level-0 bucket count: 1024
	l0Buckets = 1 << l0Bits        //
	l1Bits    = 8                  // level-1 slot count: 256
	l1Buckets = 1 << l1Bits        //
	slotShift = granShift + l0Bits // level-1 slot width: 2^18 ps = 262 ns
	l0Words   = l0Buckets / 64     //
	l1Words   = l1Buckets / 64     //
)

// maxFreeNodes bounds the event-node free list. A saturation transient
// that briefly pends tens of thousands of events does not pin its peak
// population for the rest of the run: nodes released beyond the cap are
// dropped to the garbage collector, mirroring the old heap's shrink-after-
// drain behaviour, while steady-state populations (a few thousand events
// at 64P saturation) recycle entirely within the cap.
const maxFreeNodes = 8192

// node placement states.
const (
	whereIdle uint8 = iota // not scheduled
	whereL0                // linked into a level-0 bucket
	whereL1                // linked into a level-1 bucket
	whereFar               // live entry in the far heap
)

// timerNode is one pending event. Pooled nodes carry one-shot At/AtArg
// events and return to the engine's free list after dispatch; non-pooled
// nodes are embedded in Timer handles and owned by their component, so
// rearming a timer is pointer surgery on bucket lists with no pool
// traffic at all.
type timerNode struct {
	at   Time
	seq  uint64
	fn   func(any)
	arg  any
	next *timerNode
	prev *timerNode
	// bucket is the node's index within its level's bucket array while
	// where is whereL0/whereL1, so cancellation can unlink in O(1).
	bucket int32
	where  uint8
	pooled bool
}

// callNullary is the shared adapter that dispatches events scheduled with
// the closure-based At/After API.
func callNullary(arg any) { arg.(func())() }

// list is one bucket: an intrusive doubly-linked list of nodes.
type list struct{ head, tail *timerNode }

// farEntry is one far-heap element. The (at, seq) key is copied out of the
// node so a lazily-cancelled entry can be recognized as stale: a timer
// cancelled while in the far heap leaves its entry behind, and any rearm
// changes the node's seq, so an entry is live iff the node still points at
// the far heap with the same seq.
type farEntry struct {
	at  Time
	seq uint64
	n   *timerNode
}

// Engine is a deterministic discrete-event scheduler. The zero value is
// ready to use. Engine is not safe for concurrent use; a simulation is a
// single goroutine by design — concurrency across simulations belongs to
// the experiment scheduler, internal/fleet, which gives each slot its own
// engines.
type Engine struct {
	now      Time
	seq      uint64
	executed uint64
	stopped  bool
	live     int // schedulable events pending (cancelled ones excluded)

	// slot1 is the absolute level-1 slot index level 0 is mapped to; cur0
	// is the level-0 scan cursor (no live level-0 event sits below it).
	slot1 int64
	cur0  int

	l0      [l0Buckets]list
	l1      [l1Buckets]list
	l0bits  [l0Words]uint64
	l1bits  [l1Words]uint64
	l0count int
	l1count int

	far     []farEntry // min-heap by (at, seq); may hold stale entries
	farLive int        // live (non-stale) far entries

	free []*timerNode
}

// NewEngine returns a fresh engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have run so far. Useful in tests and for
// progress accounting.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are scheduled but not yet executed.
func (e *Engine) Pending() int { return e.live }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a model bug, and silently clamping would hide it.
//
// At does not allocate in steady state, but the fn passed to it usually
// does: a closure capturing local state is a fresh heap object per call.
// Hot paths should use AtArg with a pre-bound callback and a pooled
// argument, or an embedded Timer, instead.
func (e *Engine) At(t Time, fn func()) {
	e.AtArg(t, callNullary, fn)
}

// After schedules fn to run d after the current time. Negative delays panic.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.AtArg(e.now+d, callNullary, fn)
}

// AtArg schedules fn(arg) at absolute time t. It is the zero-allocation
// scheduling primitive: fn is typically bound once (a stored method value
// or package function) and arg is a pooled pointer, so steady-state
// scheduling touches no heap once the node pool is warm. The coherence,
// memctrl and cpu hot paths all schedule through it.
//
//gs:noalloc guard=TestEngineAtArgZeroAlloc
func (e *Engine) AtArg(t Time, fn func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	n := e.getNode()
	n.at, n.seq, n.fn, n.arg = t, e.seq, fn, arg
	e.insert(n)
}

// AfterArg schedules fn(arg) to run d after the current time.
//
//gs:noalloc guard=TestEngineAtArgZeroAlloc
func (e *Engine) AfterArg(d Time, fn func(any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.AtArg(e.now+d, fn, arg)
}

// getNode borrows a pooled node.
func (e *Engine) getNode() *timerNode {
	if k := len(e.free); k > 0 {
		n := e.free[k-1]
		e.free = e.free[:k-1]
		return n
	}
	return &timerNode{pooled: true} //lint:alloc-ok node-pool refill, amortized across the run
}

// release returns a dispatched or cleared node to the pool (pooled nodes
// only — timer-owned nodes stay with their handle). Callback references
// are dropped so a parked pool cannot pin closures or transaction state.
func (e *Engine) release(n *timerNode) {
	if !n.pooled {
		return
	}
	n.fn, n.arg = nil, nil
	if len(e.free) < maxFreeNodes {
		e.free = append(e.free, n)
	}
}

// insert places a node whose (at, seq) key is set into the level its
// timestamp calls for. The level-0 window is exactly the slot slot1; the
// level-1 window the following l1Buckets-1 slots; everything later goes to
// the far heap.
func (e *Engine) insert(n *timerNode) {
	s := int64(n.at >> slotShift)
	switch d := s - e.slot1; {
	case d == 0:
		e.insertL0(n)
	case d > 0 && d < l1Buckets:
		b := int(s & (l1Buckets - 1))
		n.where, n.bucket = whereL1, int32(b)
		l := &e.l1[b]
		if l.tail == nil {
			l.head, l.tail = n, n
			n.prev, n.next = nil, nil
		} else {
			n.prev, n.next = l.tail, nil
			l.tail.next = n
			l.tail = n
		}
		e.l1bits[b>>6] |= 1 << (b & 63)
		e.l1count++
	default:
		if d < 0 {
			// Unreachable: slot1 only advances to a slot that dispatches
			// immediately, so now (and every valid timestamp) is >= its
			// start. Guarded because a silent misfile would break order.
			panic("sim: event timestamp before the open slot")
		}
		n.where = whereFar
		e.far = append(e.far, farEntry{at: n.at, seq: n.seq, n: n})
		e.farSiftUp(len(e.far) - 1)
		e.farLive++
	}
	e.live++
}

// insertL0 links a node into its sorted level-0 bucket. The walk runs from
// the tail because the common case — a fresh schedule, whose seq is larger
// than every pending event's — belongs at or near the end.
func (e *Engine) insertL0(n *timerNode) {
	b := int((n.at >> granShift) & (l0Buckets - 1))
	n.where, n.bucket = whereL0, int32(b)
	l := &e.l0[b]
	at, sq := n.at, n.seq
	cur := l.tail
	for cur != nil && (cur.at > at || (cur.at == at && cur.seq > sq)) {
		cur = cur.prev
	}
	if cur == nil {
		n.prev, n.next = nil, l.head
		if l.head != nil {
			l.head.prev = n
		} else {
			l.tail = n
		}
		l.head = n
	} else {
		n.prev, n.next = cur, cur.next
		if cur.next != nil {
			cur.next.prev = n
		} else {
			l.tail = n
		}
		cur.next = n
	}
	e.l0bits[b>>6] |= 1 << (b & 63)
	e.l0count++
	if b < e.cur0 {
		e.cur0 = b
	}
}

// remove unlinks a scheduled node (timer cancellation). Wheel nodes are
// pointer surgery; far-heap nodes are cancelled lazily — the heap entry
// stays behind and is recognized as stale by its (where, seq) mismatch.
func (e *Engine) remove(n *timerNode) {
	switch n.where {
	case whereL0:
		b := int(n.bucket)
		e.unlink(&e.l0[b], n)
		if e.l0[b].head == nil {
			e.l0bits[b>>6] &^= 1 << (b & 63)
		}
		e.l0count--
	case whereL1:
		b := int(n.bucket)
		e.unlink(&e.l1[b], n)
		if e.l1[b].head == nil {
			e.l1bits[b>>6] &^= 1 << (b & 63)
		}
		e.l1count--
	case whereFar:
		e.farLive--
	default:
		panic("sim: remove of unscheduled node")
	}
	n.where = whereIdle
	n.next, n.prev = nil, nil
	e.live--
}

func (e *Engine) unlink(l *list, n *timerNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
}

// scanL0 returns the first populated level-0 bucket at or above the
// cursor. Only valid while l0count > 0.
func (e *Engine) scanL0() int {
	w := e.cur0 >> 6
	word := e.l0bits[w] &^ ((1 << (e.cur0 & 63)) - 1)
	for word == 0 {
		w++
		word = e.l0bits[w]
	}
	b := w<<6 + bits.TrailingZeros64(word)
	e.cur0 = b
	return b
}

// nextL1Slot returns the absolute index of the nearest populated level-1
// slot after slot1. Only valid while l1count > 0.
func (e *Engine) nextL1Slot() int64 {
	start := int((e.slot1 + 1) & (l1Buckets - 1))
	w := start >> 6
	word := e.l1bits[w] &^ ((1 << (start & 63)) - 1)
	for i := 0; ; i++ {
		if word != 0 {
			b := w<<6 + bits.TrailingZeros64(word)
			d := (int64(b) - e.slot1) & (l1Buckets - 1)
			return e.slot1 + d
		}
		if i > l1Words {
			panic("sim: level-1 bitmap scan found no slot")
		}
		w = (w + 1) % l1Words
		word = e.l1bits[w]
	}
}

// dropStaleFar pops cancelled entries off the far heap's top so far[0],
// when farLive > 0, is always a live entry.
func (e *Engine) dropStaleFar() {
	for len(e.far) > 0 {
		en := e.far[0]
		if en.n.where == whereFar && en.n.seq == en.seq {
			return
		}
		e.farPop()
	}
}

// openNextSlot advances the wheel to the earliest populated slot, cascading
// that slot's level-1 bucket — and any far-heap events that now fall inside
// it — into sorted level-0 buckets. It reports false when nothing is
// pending anywhere.
func (e *Engine) openNextSlot() bool {
	e.dropStaleFar()
	cand := int64(-1)
	if e.l1count > 0 {
		cand = e.nextL1Slot()
	}
	if e.farLive > 0 {
		if fs := int64(e.far[0].at >> slotShift); cand < 0 || fs < cand {
			cand = fs
		}
	}
	if cand < 0 {
		return false
	}
	e.slot1 = cand
	e.cur0 = 0
	b := int(cand & (l1Buckets - 1))
	if e.l1bits[b>>6]&(1<<(b&63)) != 0 {
		n := e.l1[b].head
		e.l1[b] = list{}
		e.l1bits[b>>6] &^= 1 << (b & 63)
		for n != nil {
			next := n.next
			n.next, n.prev = nil, nil
			e.l1count--
			e.insertL0(n)
			n = next
		}
	}
	for e.farLive > 0 {
		e.dropStaleFar()
		if e.farLive == 0 || int64(e.far[0].at>>slotShift) != cand {
			break
		}
		n := e.far[0].n
		e.farPop()
		e.farLive--
		n.next, n.prev = nil, nil
		e.insertL0(n)
	}
	return true
}

// popNode removes and returns the global-minimum (time, seq) event.
func (e *Engine) popNode() *timerNode {
	for {
		if e.l0count > 0 {
			b := e.scanL0()
			l := &e.l0[b]
			n := l.head
			l.head = n.next
			if n.next != nil {
				n.next.prev = nil
			} else {
				l.tail = nil
				e.l0bits[b>>6] &^= 1 << (b & 63)
			}
			e.l0count--
			e.live--
			n.where = whereIdle
			n.next, n.prev = nil, nil
			return n
		}
		if !e.openNextSlot() {
			return nil
		}
	}
}

// peekTime reports the timestamp of the next pending event without
// advancing the wheel. Unlike popNode it must not open a slot: RunUntil
// peeks past its bound, and a caller may schedule earlier events after it
// returns — the wheel may only advance when the advance is committed by a
// dispatch.
func (e *Engine) peekTime() (Time, bool) {
	if e.l0count > 0 {
		return e.l0[e.scanL0()].head.at, true
	}
	e.dropStaleFar()
	var best Time
	ok := false
	if e.l1count > 0 {
		s := e.nextL1Slot()
		for n := e.l1[int(s&(l1Buckets-1))].head; n != nil; n = n.next {
			if !ok || n.at < best {
				best, ok = n.at, true
			}
		}
	}
	if e.farLive > 0 {
		if ft := e.far[0].at; !ok || ft < best {
			best, ok = ft, true
		}
	}
	return best, ok
}

// Step executes the single next event. It reports false when no events
// remain or Stop has been called.
//
//gs:noalloc guard=TestEngineAtArgZeroAlloc
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	n := e.popNode()
	if n == nil {
		return false
	}
	e.now = n.at
	e.executed++
	fn, arg := n.fn, n.arg
	e.release(n)
	fn(arg)
	return true
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t (if it is ahead of the last event). Events scheduled beyond t remain
// queued so the simulation can be resumed.
func (e *Engine) RunUntil(t Time) {
	for !e.stopped {
		at, ok := e.peekTime()
		if !ok || at > t {
			break
		}
		e.Step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// Stop halts Run/RunUntil after the current event returns. Pending events
// stay queued; a subsequent Resume allows execution to continue.
func (e *Engine) Stop() { e.stopped = true }

// Resume clears a previous Stop.
func (e *Engine) Resume() { e.stopped = false }

// Stopped reports whether Stop has been called without a matching Resume.
func (e *Engine) Stopped() bool { return e.stopped }

// Reset returns the engine to its initial state — time zero, empty wheel,
// sequence counter cleared — while keeping the node pool and far-heap
// capacity, so a reset engine behaves bit-identically to a fresh one but
// schedules its first events without re-growing any backing storage.
// The experiment scheduler reuses one set of engines per slot across
// experiment units through it. Timer handles armed on the engine are detached (their
// owners are expected to be discarded along with the old simulation).
func (e *Engine) Reset() {
	if e.l0count > 0 {
		for b := range e.l0 {
			e.clearList(&e.l0[b])
		}
	}
	if e.l1count > 0 {
		for b := range e.l1 {
			e.clearList(&e.l1[b])
		}
	}
	for _, en := range e.far {
		if en.n.where == whereFar && en.n.seq == en.seq {
			en.n.where = whereIdle
			e.release(en.n)
		}
	}
	e.far = e.far[:0]
	e.l0bits = [l0Words]uint64{}
	e.l1bits = [l1Words]uint64{}
	e.l0count, e.l1count, e.farLive, e.live = 0, 0, 0, 0
	e.slot1, e.cur0 = 0, 0
	e.now, e.seq, e.executed = 0, 0, 0
	e.stopped = false
}

func (e *Engine) clearList(l *list) {
	for n := l.head; n != nil; {
		next := n.next
		n.where = whereIdle
		n.next, n.prev = nil, nil
		e.release(n)
		n = next
	}
	*l = list{}
}

// far heap: a classic binary min-heap of (at, seq) keys.

func farBefore(a, b farEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (e *Engine) farSiftUp(i int) {
	en := e.far[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !farBefore(en, e.far[parent]) {
			break
		}
		e.far[i] = e.far[parent]
		i = parent
	}
	e.far[i] = en
}

// farPop removes the heap's minimum entry (live or stale); callers manage
// farLive themselves.
func (e *Engine) farPop() {
	n := len(e.far) - 1
	last := e.far[n]
	e.far[n] = farEntry{}
	e.far = e.far[:n]
	if n == 0 {
		return
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && farBefore(e.far[r], e.far[child]) {
			child = r
		}
		if !farBefore(e.far[child], last) {
			break
		}
		e.far[i] = e.far[child]
		i = child
	}
	e.far[i] = last
}
