// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate on which the whole JTP reproduction runs: the
// TDMA MAC runs one Ticker tick per slot, transports schedule pacing and
// timeout events, the mobility model schedules waypoint changes, and so on.
// Events execute in strict (time, sequence) order, so a run is a pure
// function of its configuration and random seed.
//
// A Ticker runs a tick that no queued event can precede inline, without a
// heap round trip, and counts it exactly as a queued one (see fireInline).
//
// Virtual time is an int64 nanosecond count (type Time). Using integer
// nanoseconds instead of float64 seconds makes event ordering exact and
// keeps long runs (hours of virtual time) free of floating-point drift.
//
// The event queue is a concrete 4-ary min-heap over a queue-owned event
// slab with a free-list, so steady-state scheduling performs zero heap
// allocations: a slot is recycled the moment its event fires or is
// cancelled, and cancellation (EventRef.Stop) removes the event from the
// heap eagerly instead of leaving a tombstone to pop at its timestamp.
// EventRef is a generation-checked handle into the slab, so Stop and
// Pending stay safe after the slot has been recycled. Engine.Reset rewinds
// an engine for reuse across runs (campaign workers) without reallocating
// the slab.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/javelen/jtp/internal/obs"
)

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration but is kept distinct so simulation code cannot accidentally
// mix wall-clock and virtual durations.
type Duration int64

// Common durations, mirroring the time package.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds reports the time as a float64 number of seconds. Intended for
// metrics and display, never for event ordering.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds reports the duration as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// DurationOf converts a float64 number of seconds into a Duration,
// rounding to the nearest nanosecond.
func DurationOf(seconds float64) Duration {
	return Duration(seconds*float64(Second) + 0.5)
}

// Add offsets a time by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// Handler is the callback attached to a scheduled event. It runs at the
// event's virtual time on the goroutine executing its queue; handlers must
// not block and must not retain the engine across runs.
type Handler func()

// event is one slab slot. A slot is active while it sits in the heap
// (pos >= 0); firing or cancelling releases it to the free-list and bumps
// its generation so stale EventRefs can never observe the next tenant.
type event struct {
	fn  Handler
	at  Time
	seq uint64
	gen uint32
	pos int32 // heap position, -1 while free
}

// heapEntry is one 4-ary heap element. The ordering key (at, seq) is kept
// inline so sift compares touch one contiguous array instead of chasing
// into the slab.
type heapEntry struct {
	at   Time
	seq  uint64
	slot int32
}

// EventRef identifies a scheduled event so it can be cancelled.
// The zero value is an inert reference whose Stop is a no-op.
type EventRef struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// Stop cancels the referenced event if it has not yet fired, removing it
// from the queue immediately (no tombstones: queue length never counts
// cancelled events). It reports whether the event was still pending.
func (r EventRef) Stop() bool {
	if r.eng == nil {
		return false
	}
	return r.eng.cancel(r.slot, r.gen)
}

// Pending reports whether the referenced event is scheduled and not cancelled.
func (r EventRef) Pending() bool {
	if r.eng == nil || int(r.slot) >= len(r.eng.q.slab) {
		return false
	}
	ev := &r.eng.q.slab[r.slot]
	return ev.gen == r.gen && ev.pos >= 0
}

// Engine is a discrete-event simulation engine; one goroutine owns it.
type Engine struct {
	now     Time
	seed    int64
	rng     *rand.Rand
	stopped bool

	q eventQueue

	// Executed counts handlers run; useful for progress reporting and to
	// bound runaway simulations in tests.
	Executed uint64

	// The bounds of the run in progress, for inline ticks: RunUntil's end,
	// or Drain's unbounded horizon and the Executed count at its cap.
	// Reset clears them.
	horizon Time
	execCap uint64

	// Telemetry handles (see Observe). All nil when telemetry is off, so
	// the hot path pays one nil-check per site and nothing else. Never
	// touches the RNG and never influences event order.
	obsScheduled *obs.Counter
	obsFired     *obs.Counter
	obsStopped   *obs.Counter
	obsHeapDepth *obs.Gauge
}

// NewEngine returns an engine whose random source is seeded with seed.
// The same seed always reproduces the same run.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Reset rewinds the engine to the state NewEngine(seed) would produce,
// but keeps the event slab, free-list and heap capacity, so campaign
// workers can reuse one engine across many runs without reallocating.
// Every still-pending event is cancelled (its slot generation is bumped,
// so EventRefs held across the reset turn inert) and all handler
// references are dropped.
func (e *Engine) Reset(seed int64) {
	e.q.reset()
	e.now = 0
	e.stopped = false
	e.Executed = 0
	e.horizon, e.execCap = 0, 0
	// Pooled engines outlive the registry they were observed with; detach
	// so a recycled engine never writes into a previous run's telemetry.
	e.obsScheduled = nil
	e.obsFired = nil
	e.obsStopped = nil
	e.obsHeapDepth = nil
	e.seed = seed
	e.rng.Seed(seed)
}

// Observe attaches kernel telemetry to reg: counters for events
// scheduled, fired and stopped, and a high-water gauge for heap depth.
// Observing a nil registry detaches (all handles become no-ops). Reset
// also detaches, so pooled engines start each run silent.
func (e *Engine) Observe(reg *obs.Registry) {
	e.obsScheduled = reg.Counter("sim_events_scheduled")
	e.obsFired = reg.Counter("sim_events_fired")
	e.obsStopped = reg.Counter("sim_events_stopped")
	e.obsHeapDepth = reg.Gauge("sim_heap_depth")
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source. All stochastic
// simulation decisions (link loss draws, jitter, placement) must come from
// this source to keep runs reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule runs fn after delay d. A negative delay is treated as zero
// (the event fires at the current time, after already-queued events for
// this instant).
func (e *Engine) Schedule(d Duration, fn Handler) EventRef {
	if d < 0 {
		d = 0
	}
	return e.ScheduleAt(e.Now().Add(d), fn)
}

// ScheduleAt runs fn at absolute virtual time at. Times in the past are
// clamped to the current instant. Steady-state scheduling is
// allocation-free: slots released by fired or cancelled events are
// recycled before the slab grows.
func (e *Engine) ScheduleAt(at Time, fn Handler) EventRef {
	if fn == nil {
		panic("sim: ScheduleAt with nil handler")
	}
	if now := e.Now(); at < now {
		at = now
	}
	slot := e.q.push(at, fn)
	e.obsScheduled.Inc()
	e.obsHeapDepth.Update(uint64(len(e.q.heap)))
	return EventRef{eng: e, slot: slot, gen: e.q.slab[slot].gen}
}

// cancel removes a still-pending event from the queue and recycles its
// slot. It reports whether the reference was live.
func (e *Engine) cancel(slot int32, gen uint32) bool {
	if int(slot) >= len(e.q.slab) {
		return false
	}
	ev := &e.q.slab[slot]
	if ev.gen != gen || ev.pos < 0 {
		return false
	}
	e.q.remove(int(ev.pos))
	e.q.release(slot)
	e.obsStopped.Inc()
	return true
}

// Stop halts the run loop after the currently executing handler returns.
//
// The flag is NOT sticky across runs: RunUntil, RunFor and Drain each
// clear it on entry, so a Stop only terminates the loop that is currently
// executing (or the next one entered before any event fires — a Stop
// issued between runs is erased by the next run's entry). Pending events
// remain queued and a subsequent RunUntil resumes them; only Reset
// discards them. TestEngineStopSemantics pins this contract.
func (e *Engine) Stop() { e.stopped = true }

// RunUntil executes events in order until the queue is empty or the next
// event is later than end. Virtual time is left at end (or at the last
// event's time, whichever is larger) so repeated calls advance monotonically.
func (e *Engine) RunUntil(end Time) {
	e.stopped = false
	e.horizon, e.execCap = end, math.MaxUint64
	for len(e.q.heap) > 0 && !e.stopped {
		top := e.q.heap[0]
		if top.at > end {
			break
		}
		e.q.popRoot()
		fn := e.q.slab[top.slot].fn
		e.q.release(top.slot)
		e.now = top.at
		e.Executed++
		e.obsFired.Inc()
		fn()
	}
	if e.now < end {
		e.now = end
	}
}

// RunFor executes events for a span of virtual time starting at Now.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// DrainEventCap bounds Drain: a drain that executes more than this many
// events returns an error instead of hanging the caller (a handler that
// unconditionally reschedules itself would otherwise spin CI forever,
// since Drain has no time bound).
const DrainEventCap = 50_000_000

// Drain executes all remaining events regardless of time, up to
// DrainEventCap events (inline ticks included). Intended for tests;
// production runs should bound time with RunUntil. It returns an error if
// the cap is reached, leaving the remaining events queued.
func (e *Engine) Drain() error { return e.drain(DrainEventCap) }

// drain is Drain with the cap as a parameter, so a test can reach it.
func (e *Engine) drain(limit uint64) error {
	e.stopped = false
	e.horizon, e.execCap = math.MaxInt64, e.Executed+limit
	for len(e.q.heap) > 0 && !e.stopped {
		if e.Executed >= e.execCap {
			return fmt.Errorf("sim: Drain exceeded %d events with %d still pending (self-rescheduling handler?)", limit, e.PendingEvents())
		}
		top := e.q.heap[0]
		e.q.popRoot()
		fn := e.q.slab[top.slot].fn
		e.q.release(top.slot)
		e.now = top.at
		e.Executed++
		e.obsFired.Inc()
		fn()
	}
	return nil
}

// fireInline lets a tick due at `at` run now, in its ticker's handler,
// when nothing can precede it: the run is not stopped, at lies within the
// run's horizon and event budget, and every queued event is strictly
// later (one at the same instant has the lower sequence number and wins,
// so the tick goes through the queue). It accounts the tick as a push and
// a pop would and advances the clock.
func (e *Engine) fireInline(at Time) bool {
	if e.stopped || at > e.horizon || e.Executed >= e.execCap ||
		len(e.q.heap) > 0 && e.q.heap[0].at <= at {
		return false
	}
	e.q.seq++
	e.obsScheduled.Inc()
	e.obsHeapDepth.Update(uint64(len(e.q.heap) + 1))
	e.now = at
	e.Executed++
	e.obsFired.Inc()
	return true
}

// PendingEvents reports the number of scheduled, uncancelled events.
// Cancellation removes events eagerly, so this is exactly the queue
// length.
func (e *Engine) PendingEvents() int { return len(e.q.heap) }

// ---- event queue: 4-ary min-heap over (at, seq) ----------------------
//
// Children of node i are 4i+1..4i+4; parent of i is (i-1)/4. A 4-ary
// layout halves tree depth versus binary, trading slightly wider sibling
// scans (cache-friendly: 4 entries are contiguous) for fewer swaps. The
// comparator is the strict total order (at, seq) — seq is unique per
// queue — so pop order is independent of heap shape.

type eventQueue struct {
	slab []event
	free []int32
	heap []heapEntry
	seq  uint64
}

// push claims a slot for (at, fn) under the next sequence number and
// heaps it, returning the slot index.
func (q *eventQueue) push(at Time, fn Handler) int32 {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		q.slab = append(q.slab, event{pos: -1})
		slot = int32(len(q.slab) - 1)
	}
	ev := &q.slab[slot]
	ev.fn = fn
	ev.at = at
	q.seq++
	ev.seq = q.seq
	q.heapPush(heapEntry{at: at, seq: q.seq, slot: slot})
	return slot
}

// release recycles a slab slot onto the free-list, dropping the handler
// reference and invalidating outstanding EventRefs.
func (q *eventQueue) release(slot int32) {
	ev := &q.slab[slot]
	ev.fn = nil
	ev.pos = -1
	ev.gen++
	q.free = append(q.free, slot)
}

// reset cancels everything and rewinds the queue, keeping capacity.
func (q *eventQueue) reset() {
	for i := range q.slab {
		ev := &q.slab[i]
		ev.fn = nil
		if ev.pos >= 0 {
			ev.pos = -1
			ev.gen++
		}
	}
	q.heap = q.heap[:0]
	q.free = q.free[:0]
	for i := len(q.slab) - 1; i >= 0; i-- {
		q.free = append(q.free, int32(i))
	}
	q.seq = 0
}

func heapLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) heapPush(h heapEntry) {
	q.heap = append(q.heap, h)
	q.siftUp(len(q.heap) - 1)
}

// popRoot removes the minimum entry (heap[0]).
func (q *eventQueue) popRoot() {
	last := len(q.heap) - 1
	if last == 0 {
		q.heap = q.heap[:0]
		return
	}
	q.heap[0] = q.heap[last]
	q.slab[q.heap[0].slot].pos = 0
	q.heap = q.heap[:last]
	q.siftDown(0)
}

// remove removes the entry at position i (cancellation).
func (q *eventQueue) remove(i int) {
	last := len(q.heap) - 1
	if i == last {
		q.heap = q.heap[:last]
		return
	}
	moved := q.heap[last]
	q.heap[i] = moved
	q.slab[moved.slot].pos = int32(i)
	q.heap = q.heap[:last]
	if !q.siftDown(i) {
		q.siftUp(i)
	}
}

func (q *eventQueue) siftUp(i int) {
	h := q.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !heapLess(h, q.heap[parent]) {
			break
		}
		q.heap[i] = q.heap[parent]
		q.slab[q.heap[i].slot].pos = int32(i)
		i = parent
	}
	q.heap[i] = h
	q.slab[h.slot].pos = int32(i)
}

// siftDown restores heap order below i, reporting whether the entry moved.
func (q *eventQueue) siftDown(i int) bool {
	h := q.heap[i]
	n := len(q.heap)
	start := i
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		stop := first + 4
		if stop > n {
			stop = n
		}
		for c := first + 1; c < stop; c++ {
			if heapLess(q.heap[c], q.heap[min]) {
				min = c
			}
		}
		if !heapLess(q.heap[min], h) {
			break
		}
		q.heap[i] = q.heap[min]
		q.slab[q.heap[i].slot].pos = int32(i)
		i = min
	}
	q.heap[i] = h
	q.slab[h.slot].pos = int32(i)
	return i > start
}

// Ticker invokes fn every period until Stop is called on the returned
// ticker. The first invocation happens one period from now (plus jitter if
// any). Jitter, when positive, uniformly perturbs each period by ±jitter/2;
// it models unsynchronized periodic processes (e.g. routing updates).
type Ticker struct {
	engine *Engine
	period Duration
	jitter Duration
	fn     Handler
	tick   Handler // the one closure re-armed every period
	ref    EventRef
	done   bool
}

// NewTicker schedules fn every period. period must be positive.
func (e *Engine) NewTicker(period Duration, fn Handler) *Ticker {
	return e.NewJitteredTicker(period, 0, fn)
}

// NewJitteredTicker schedules fn roughly every period, each interval
// perturbed uniformly by ±jitter/2.
func (e *Engine) NewJitteredTicker(period, jitter Duration, fn Handler) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{engine: e, period: period, jitter: jitter, fn: fn}
	// One closure for the ticker's lifetime; re-arming reuses it, so a
	// ticking simulation allocates nothing per period. Ticks that nothing
	// can precede run in this loop instead of through the queue.
	t.tick = func() {
		for !t.done {
			t.fn()
			if t.done {
				return
			}
			if at := t.next(); !e.fireInline(at) {
				t.ref = e.ScheduleAt(at, t.tick)
				return
			}
		}
	}
	t.ref = e.ScheduleAt(t.next(), t.tick)
	return t
}

// next draws the time of the ticker's next tick.
func (t *Ticker) next() Time {
	d := t.period
	if t.jitter > 0 {
		d += Duration(t.engine.rng.Int63n(int64(t.jitter))) - t.jitter/2
		if d <= 0 {
			d = 1
		}
	}
	return t.engine.now.Add(d)
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.done = true
	t.ref.Stop()
}
