package sim

import (
	"strings"
	"testing"

	"github.com/javelen/jtp/internal/obs"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3*Second, func() { got = append(got, 3) })
	e.Schedule(1*Second, func() { got = append(got, 1) })
	e.Schedule(2*Second, func() { got = append(got, 2) })
	e.RunUntil(Time(10 * Second))
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Second, func() { got = append(got, i) })
	}
	e.RunUntil(Time(2 * Second))
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestRunUntilBoundary(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Schedule(5*Second, func() { ran++ })
	e.Schedule(10*Second+1, func() { ran++ })
	e.RunUntil(Time(10 * Second))
	if ran != 1 {
		t.Fatalf("expected exactly the in-window event, ran=%d", ran)
	}
	if e.Now() != Time(10*Second) {
		t.Fatalf("time should land on the boundary, got %v", e.Now())
	}
	e.RunUntil(Time(20 * Second))
	if ran != 2 {
		t.Fatalf("later event should run on resume, ran=%d", ran)
	}
}

func TestEventStop(t *testing.T) {
	e := NewEngine(1)
	ran := false
	ref := e.Schedule(Second, func() { ran = true })
	if !ref.Pending() {
		t.Fatal("freshly scheduled event should be pending")
	}
	if !ref.Stop() {
		t.Fatal("Stop should report the event was pending")
	}
	if ref.Stop() {
		t.Fatal("second Stop should report false")
	}
	e.RunUntil(Time(10 * Second))
	if ran {
		t.Fatal("stopped event ran")
	}
	var zero EventRef
	if zero.Stop() || zero.Pending() {
		t.Fatal("zero EventRef must be inert")
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			e.Schedule(Second, recurse)
		}
	}
	e.Schedule(Second, recurse)
	e.RunUntil(Time(100 * Second))
	if depth != 5 {
		t.Fatalf("nested scheduling depth = %d, want 5", depth)
	}
	if e.Now() != Time(100*Second) {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Schedule(-5*Second, func() { ran = true })
	e.RunUntil(0)
	if !ran {
		t.Fatal("negative-delay event should fire immediately")
	}
}

func TestStopHaltsLoop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.Schedule(Second, func() { count++; e.Stop() })
	e.Schedule(2*Second, func() { count++ })
	e.RunUntil(Time(10 * Second))
	if count != 1 {
		t.Fatalf("Stop did not halt the loop, count=%d", count)
	}
	e.RunUntil(Time(10 * Second))
	if count != 2 {
		t.Fatalf("resume after Stop failed, count=%d", count)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	tk := e.NewTicker(Second, func() { ticks++ })
	e.RunUntil(Time(5*Second + Millisecond))
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	tk.Stop()
	e.RunUntil(Time(10 * Second))
	if ticks != 5 {
		t.Fatalf("ticker kept firing after Stop: %d", ticks)
	}
}

func TestTickerStopInsideHandler(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	var tk *Ticker
	tk = e.NewTicker(Second, func() {
		ticks++
		if ticks == 3 {
			tk.Stop()
		}
	})
	e.RunUntil(Time(20 * Second))
	if ticks != 3 {
		t.Fatalf("ticker should self-stop at 3, got %d", ticks)
	}
}

func TestJitteredTickerStaysPositive(t *testing.T) {
	e := NewEngine(7)
	ticks := 0
	e.NewJitteredTicker(Second, 500*Millisecond, func() { ticks++ })
	e.RunUntil(Time(100 * Second))
	// Expect roughly 100 ticks; jitter is symmetric.
	if ticks < 80 || ticks > 125 {
		t.Fatalf("jittered ticker fired %d times over 100s at 1Hz", ticks)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e := NewEngine(99)
		var vals []float64
		e.NewTicker(Second, func() { vals = append(vals, e.Rand().Float64()) })
		e.RunUntil(Time(10 * Second))
		return vals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDrain(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Schedule(1000*Second, func() { ran++ })
	e.Schedule(2000*Second, func() { ran++ })
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("Drain ran %d events, want 2", ran)
	}
	if e.PendingEvents() != 0 {
		t.Fatalf("pending after drain: %d", e.PendingEvents())
	}
}

// TestEngineStopSemantics pins the documented Stop contract: the flag is
// not sticky across runs — RunUntil and Drain clear it on entry — and
// pending events survive a Stop to be resumed by the next run.
func TestEngineStopSemantics(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	e.Schedule(1*Second, func() { fired = append(fired, 1); e.Stop() })
	e.Schedule(2*Second, func() { fired = append(fired, 2) })

	e.RunUntil(Time(10 * Second))
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v, want [1] (Stop halts the loop)", fired)
	}
	if !e.stopped {
		t.Fatal("stop flag clear immediately after a stopped run")
	}
	if e.PendingEvents() != 1 {
		t.Fatalf("PendingEvents = %d, want 1 (Stop leaves events queued)", e.PendingEvents())
	}

	// A fresh run clears the flag and resumes the queued event.
	e.RunUntil(Time(10 * Second))
	if len(fired) != 2 || fired[1] != 2 {
		t.Fatalf("fired = %v, want [1 2] (next run resumes pending events)", fired)
	}
	if e.stopped {
		t.Fatal("stop flag set after a run that was never stopped")
	}

	// A Stop issued between runs is erased by the next run's entry.
	e.Stop()
	ran := false
	e.Schedule(1*Second, func() { ran = true })
	e.RunUntil(Time(20 * Second))
	if !ran {
		t.Fatal("a between-runs Stop must not survive RunUntil's entry")
	}
}

// TestDrainEventCap pins the two Drain exits that stay below the cap: a
// finite queue drains to nil, and a Stop inside a self-rescheduling chain
// ends the drain with nil (not the cap error) and the chain's next link
// still queued. TestDrainCapReturnsError covers the cap itself.
func TestDrainEventCap(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.Schedule(Millisecond, func() { n++ })
	if err := e.Drain(); err != nil {
		t.Fatalf("Drain on a finite queue: %v", err)
	}
	if n != 1 {
		t.Fatalf("n = %d, want 1", n)
	}
	var reschedule func()
	count := 0
	reschedule = func() {
		count++
		if count == 1000 {
			e.Stop()
		}
		e.Schedule(Millisecond, reschedule)
	}
	e.Schedule(Millisecond, reschedule)
	if err := e.Drain(); err != nil {
		t.Fatalf("stopped Drain must not report the cap: %v", err)
	}
	if count != 1000 {
		t.Fatalf("count = %d, want 1000", count)
	}
	if e.PendingEvents() != 1 {
		t.Fatalf("PendingEvents = %d, want 1 (the chain's next link stays queued)", e.PendingEvents())
	}
}

// TestDrainCapReturnsError reaches the cap: a handler that always
// reschedules itself makes drain return the cap error after exactly cap
// events, with the chain's next link still queued for a later run.
func TestDrainCapReturnsError(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		e.Schedule(Millisecond, reschedule)
	}
	e.Schedule(Millisecond, reschedule)
	err := e.drain(1000)
	if err == nil {
		t.Fatal("drain past its cap returned nil")
	}
	if msg := err.Error(); !strings.Contains(msg, "exceeded 1000 events") || !strings.Contains(msg, "1 still pending") {
		t.Fatalf("cap error = %q, want \"exceeded 1000 events … 1 still pending\"", msg)
	}
	if count != 1000 || e.Executed != 1000 {
		t.Fatalf("executed %d handlers (Executed = %d), want exactly 1000", count, e.Executed)
	}
	if e.PendingEvents() != 1 {
		t.Fatalf("PendingEvents = %d, want 1", e.PendingEvents())
	}
	e.RunUntil(e.Now().Add(Millisecond))
	if count != 1001 {
		t.Fatalf("count = %d after RunUntil, want 1001 (the queued link resumes)", count)
	}
}

func TestTimeHelpers(t *testing.T) {
	if DurationOf(1.5) != Duration(1500*Millisecond) {
		t.Fatalf("DurationOf(1.5) = %d", DurationOf(1.5))
	}
	tm := Time(2500 * Millisecond)
	if tm.Seconds() != 2.5 {
		t.Fatalf("Seconds() = %v", tm.Seconds())
	}
	if tm.Add(500*Millisecond) != Time(3*Second) {
		t.Fatal("Add failed")
	}
	if tm.Sub(Time(Second)) != Duration(1500*Millisecond) {
		t.Fatal("Sub failed")
	}
	if tm.String() != "2.500s" {
		t.Fatalf("String() = %q", tm.String())
	}
}

func TestScheduleAtPastClamps(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(Time(5 * Second))
	ran := false
	e.ScheduleAt(Time(Second), func() { ran = true })
	e.RunUntil(Time(5 * Second))
	if !ran {
		t.Fatal("past-scheduled event should fire at current time")
	}
}

func TestPendingEvents(t *testing.T) {
	e := NewEngine(1)
	r1 := e.Schedule(Second, func() {})
	e.Schedule(2*Second, func() {})
	if e.PendingEvents() != 2 {
		t.Fatalf("pending = %d, want 2", e.PendingEvents())
	}
	r1.Stop()
	if e.PendingEvents() != 1 {
		t.Fatalf("pending after stop = %d, want 1", e.PendingEvents())
	}
}

// TestStopRemovesEagerly pins the eager-removal contract: a cancelled
// event leaves the queue immediately instead of lingering as a tombstone
// until its timestamp pops. Long runs with timer churn (MAC retransmit +
// transport pacing timers re-armed far in the future) would otherwise
// grow the heap without bound.
func TestStopRemovesEagerly(t *testing.T) {
	e := NewEngine(1)
	// Schedule/cancel churn: each iteration arms a far-future timer and
	// cancels the previous one, the pattern of a pacing timer that is
	// re-armed on every packet.
	var ref EventRef
	maxPending := 0
	for i := 0; i < 100000; i++ {
		ref.Stop()
		ref = e.Schedule(1000*Second, func() {})
		if n := e.PendingEvents(); n > maxPending {
			maxPending = n
		}
	}
	if maxPending > 1 {
		t.Fatalf("schedule/cancel churn grew the queue to %d events, want ≤ 1", maxPending)
	}
	// The slab must also stay bounded: churn recycles one slot.
	if n := len(e.q.slab); n > 2 {
		t.Fatalf("slab grew to %d slots under 1-deep churn, want ≤ 2", n)
	}
}

// TestQueueBoundedUnderMixedChurn drives many interleaved timers through
// schedule/cancel cycles and checks the queue tracks only live events.
func TestQueueBoundedUnderMixedChurn(t *testing.T) {
	e := NewEngine(3)
	const timers = 64
	refs := make([]EventRef, timers)
	for round := 0; round < 2000; round++ {
		i := e.Rand().Intn(timers)
		refs[i].Stop()
		refs[i] = e.Schedule(Duration(1+e.Rand().Int63n(int64(100*Second))), func() {})
		if n := e.PendingEvents(); n > timers {
			t.Fatalf("round %d: %d pending events for %d live timers", round, n, timers)
		}
	}
	live := 0
	for _, r := range refs {
		if r.Pending() {
			live++
		}
	}
	if e.PendingEvents() != live {
		t.Fatalf("queue length %d != live refs %d", e.PendingEvents(), live)
	}
}

// TestStaleRefAfterSlotReuse pins the generation check: once an event has
// fired and its slot has been recycled by a new event, the old reference
// must stay inert and must not cancel the new tenant.
func TestStaleRefAfterSlotReuse(t *testing.T) {
	e := NewEngine(1)
	stale := e.Schedule(Second, func() {})
	e.RunUntil(Time(2 * Second)) // fires; slot returns to the free-list
	ran := false
	fresh := e.Schedule(Second, func() { ran = true }) // recycles the slot
	if stale.Pending() {
		t.Fatal("fired ref reports pending after slot reuse")
	}
	if stale.Stop() {
		t.Fatal("fired ref Stop reported true after slot reuse")
	}
	if !fresh.Pending() {
		t.Fatal("stale Stop cancelled the slot's new tenant")
	}
	e.RunUntil(Time(4 * Second))
	if !ran {
		t.Fatal("new tenant did not run")
	}
}

// TestStopInsideOwnHandler pins that a handler cancelling its own (already
// fired) reference is a no-op, as before the slab refactor.
func TestStopInsideOwnHandler(t *testing.T) {
	e := NewEngine(1)
	var ref EventRef
	stopped := true
	ref = e.Schedule(Second, func() { stopped = ref.Stop() })
	e.RunUntil(Time(2 * Second))
	if stopped {
		t.Fatal("Stop on the currently executing event should report false")
	}
}

// TestHeapOrderRandomized cross-checks the 4-ary heap against a reference
// sort over a large random schedule, including interleaved cancellations.
func TestHeapOrderRandomized(t *testing.T) {
	e := NewEngine(17)
	type ev struct {
		at  Time
		seq int
	}
	var want []ev
	var got []ev
	seq := 0
	refs := make([]EventRef, 0, 4096)
	kept := make([]ev, 0, 4096)
	for i := 0; i < 4096; i++ {
		at := Time(e.Rand().Int63n(int64(50 * Second)))
		s := seq
		seq++
		refs = append(refs, e.ScheduleAt(at, func() { got = append(got, ev{0, s}) }))
		kept = append(kept, ev{at, s})
	}
	// Cancel a third of them.
	cancelled := map[int]bool{}
	for i := 0; i < 4096/3; i++ {
		k := e.Rand().Intn(len(refs))
		if refs[k].Stop() {
			cancelled[k] = true
		}
	}
	for i, k := range kept {
		if !cancelled[i] {
			want = append(want, k)
		}
	}
	// Reference order: (at, seq) ascending; insertion seq is monotone in
	// engine seq, so a stable sort by at reproduces the contract.
	for i := 1; i < len(want); i++ {
		for j := i; j > 0 && (want[j].at < want[j-1].at); j-- {
			want[j], want[j-1] = want[j-1], want[j]
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].seq != want[i].seq {
			t.Fatalf("order diverged at %d: got seq %d want %d", i, got[i].seq, want[i].seq)
		}
	}
}

// TestResetReproducesFreshEngine pins Engine.Reset: a reset engine must be
// indistinguishable from a new one — same RNG stream, same event order,
// same clock — while stale refs from before the reset stay inert. The
// engine is reset after a stopped ticker run and a capped drain, and the
// tickers created after the reset must trace (clock, RNG draw, Executed,
// PendingEvents) as they do on a fresh engine.
func TestResetReproducesFreshEngine(t *testing.T) {
	trace := func(e *Engine) []float64 {
		var vals []float64
		e.NewJitteredTicker(Second, 300*Millisecond, func() { vals = append(vals, e.Now().Seconds(), e.Rand().Float64()) })
		e.NewTicker(700*Millisecond, func() { vals = append(vals, -e.Now().Seconds()) })
		e.Schedule(5*Second, func() { vals = append(vals, -1) })
		for _, end := range []Time{Time(3500 * Millisecond), Time(7 * Second), Time(10 * Second)} {
			e.RunUntil(end)
			vals = append(vals, float64(e.Executed), float64(e.PendingEvents()))
		}
		return vals
	}
	fresh := trace(NewEngine(42))

	reused := NewEngine(7)
	leftover := reused.Schedule(500*Second, func() {})
	trace(reused) // dirty the slab and RNG
	n := 0
	reused.NewTicker(Millisecond, func() {
		if n++; n == 10 {
			reused.Stop()
		}
	})
	reused.RunUntil(Time(20 * Second)) // stopped inside a tick
	if err := reused.drain(100); err == nil {
		t.Fatal("drain of a live ticker returned nil")
	}
	reused.Reset(42)
	if reused.Now() != 0 || reused.PendingEvents() != 0 || reused.Executed != 0 {
		t.Fatalf("Reset left state: now=%v pending=%d executed=%d",
			reused.Now(), reused.PendingEvents(), reused.Executed)
	}
	if leftover.Pending() {
		t.Fatal("pre-reset ref still pending")
	}
	if leftover.Stop() {
		t.Fatal("pre-reset ref Stop reported true")
	}
	again := trace(reused)
	if len(fresh) != len(again) {
		t.Fatalf("reset run length %d != fresh run length %d", len(again), len(fresh))
	}
	for i := range fresh {
		if fresh[i] != again[i] {
			t.Fatalf("reset run diverged at %d: %v vs %v", i, again[i], fresh[i])
		}
	}
}

// TestAllocsScheduleSteadyState guards the kernel hot path: once the slab
// has reached its high-water mark, schedule/fire cycles must not allocate.
func TestAllocsScheduleSteadyState(t *testing.T) {
	e := NewEngine(1)
	var fn Handler
	fn = func() { e.Schedule(Millisecond, fn) } // self-rescheduling timer
	for i := 0; i < 64; i++ {
		e.Schedule(Millisecond, fn)
	}
	e.RunFor(Second) // warm the slab and heap to steady state
	allocs := testing.AllocsPerRun(100, func() {
		e.RunFor(10 * Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Schedule/RunUntil allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocsScheduleStopChurn guards the cancel path: re-arming a timer
// (Stop + Schedule) must not allocate either.
func TestAllocsScheduleStopChurn(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	var ref EventRef
	ref = e.Schedule(Second, fn)
	allocs := testing.AllocsPerRun(1000, func() {
		ref.Stop()
		ref = e.Schedule(Second, fn)
	})
	if allocs != 0 {
		t.Fatalf("stop/re-schedule churn allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocsScheduleSteadyStateObserved repeats the steady-state guard
// with a telemetry registry attached: counter handles are plain pointer
// increments, so instrumentation must not change the 0-allocs contract.
func TestAllocsScheduleSteadyStateObserved(t *testing.T) {
	e := NewEngine(1)
	reg := obs.New()
	e.Observe(reg)
	var fn Handler
	fn = func() { e.Schedule(Millisecond, fn) }
	for i := 0; i < 64; i++ {
		e.Schedule(Millisecond, fn)
	}
	e.RunFor(Second)
	allocs := testing.AllocsPerRun(100, func() {
		e.RunFor(10 * Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("observed steady state allocates %.1f allocs/op, want 0", allocs)
	}
	if reg.Counter("sim_events_fired").Value() == 0 {
		t.Fatal("telemetry registry saw no fired events")
	}
	if reg.Gauge("sim_heap_depth").HighWater() < 64 {
		t.Fatalf("heap depth hwm = %d, want >= 64", reg.Gauge("sim_heap_depth").HighWater())
	}
}
