package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/javelen/jtp/internal/obs"
)

// heapTicker is the reference a Ticker must be indistinguishable from: a
// handler that re-arms itself through Schedule with the same interval
// draw, so every tick is one heap push and one pop.
type heapTicker struct {
	e              *Engine
	period, jitter Duration
	fn, tick       Handler
	ref            EventRef
	done           bool
}

func newHeapTicker(e *Engine, period, jitter Duration, fn Handler) *heapTicker {
	t := &heapTicker{e: e, period: period, jitter: jitter, fn: fn}
	t.tick = func() {
		if t.done {
			return
		}
		t.fn()
		if !t.done {
			t.arm()
		}
	}
	t.arm()
	return t
}

func (t *heapTicker) arm() {
	d := t.period
	if t.jitter > 0 {
		d += Duration(t.e.Rand().Int63n(int64(t.jitter))) - t.jitter/2
		if d <= 0 {
			d = 1
		}
	}
	t.ref = t.e.Schedule(d, t.tick)
}

func (t *heapTicker) Stop() {
	t.done = true
	t.ref.Stop()
}

type stopper interface{ Stop() }

// tickHit is one handler execution as a program observes it.
type tickHit struct {
	at   Time
	id   int
	draw int64
}

// tickerRig runs one program on a fresh observed engine, with its tickers
// either real (NewJitteredTicker) or the heapTicker reference, and records
// everything the program can observe.
type tickerRig struct {
	e       *Engine
	reg     *obs.Registry
	viaHeap bool
	hits    []tickHit
	log     []string
}

func newTickerRig(seed int64, viaHeap bool) *tickerRig {
	r := &tickerRig{e: NewEngine(seed), reg: obs.New(), viaHeap: viaHeap}
	r.e.Observe(r.reg)
	return r
}

// hit records a handler run: the clock, who ran, and one engine RNG draw
// (which also pins the RNG stream the jitter draws share).
func (r *tickerRig) hit(id int) {
	r.hits = append(r.hits, tickHit{r.e.Now(), id, r.e.Rand().Int63()})
}

func (r *tickerRig) every(period, jitter Duration, fn Handler) stopper {
	if r.viaHeap {
		return newHeapTicker(r.e, period, jitter, fn)
	}
	return r.e.NewJitteredTicker(period, jitter, fn)
}

func (r *tickerRig) runUntil(end Time) {
	r.e.RunUntil(end)
	r.note(fmt.Sprintf("RunUntil(%d)", end))
}

func (r *tickerRig) drain(limit uint64) {
	err := r.e.drain(limit)
	r.note(fmt.Sprintf("drain(%d) err=%v", limit, err))
}

func (r *tickerRig) note(op string) {
	r.log = append(r.log, fmt.Sprintf("%s: now=%d executed=%d pending=%d seq=%d stopped=%v",
		op, r.e.Now(), r.e.Executed, r.e.PendingEvents(), r.e.q.seq, r.e.stopped))
}

// checkTickerEquivalence runs program with real tickers and with the heap
// reference and fails on the first observable difference: the handler
// trace, the state after every run, and the kernel telemetry.
func checkTickerEquivalence(t *testing.T, seed int64, program func(r *tickerRig)) {
	t.Helper()
	got, want := newTickerRig(seed, false), newTickerRig(seed, true)
	program(got)
	program(want)
	for i := 0; i < len(got.hits) && i < len(want.hits); i++ {
		if got.hits[i] != want.hits[i] {
			t.Fatalf("seed %d: handler %d is %+v, reference %+v", seed, i, got.hits[i], want.hits[i])
		}
	}
	if len(got.hits) != len(want.hits) {
		t.Fatalf("seed %d: %d handler runs, reference %d", seed, len(got.hits), len(want.hits))
	}
	if !reflect.DeepEqual(got.log, want.log) {
		t.Fatalf("seed %d: run states differ:\n%q\nreference:\n%q", seed, got.log, want.log)
	}
	if g, w := got.reg.Snapshot(), want.reg.Snapshot(); !reflect.DeepEqual(g, w) {
		t.Fatalf("seed %d: telemetry %v, reference %v", seed, g, w)
	}
}

// TestTickerMatchesSelfRescheduledEvent pins that a Ticker is observably
// the same as a handler re-arming itself through Schedule: same order,
// same clock, same RNG stream, same Executed, PendingEvents and sequence
// counter after every run, same sim_events_* counters and heap-depth
// gauge. The named programs cover the cases that decide whether a tick
// may skip the queue; the seeded random ones mix them.
func TestTickerMatchesSelfRescheduledEvent(t *testing.T) {
	const p = 10 * Millisecond
	programs := map[string]func(r *tickerRig){
		"event at the tick instant queued before the tick": func(r *tickerRig) {
			r.e.Schedule(p, func() { r.hit(1) })
			r.every(p, 0, func() { r.hit(100) })
			for k := 2; k <= 5; k++ {
				r.e.ScheduleAt(Time(k)*Time(p), func() { r.hit(k) })
			}
			r.runUntil(Time(10 * p))
		},
		"event at the tick instant queued during fn": func(r *tickerRig) {
			n := 0
			r.every(p, 0, func() {
				n++
				r.hit(100)
				switch n % 3 {
				case 0:
					r.e.Schedule(p, func() { r.hit(200) })
				case 1:
					r.e.Schedule(p/2, func() { r.hit(201) })
				case 2:
					r.e.Schedule(p+1, func() { r.hit(202) })
				}
			})
			r.runUntil(Time(20 * p))
		},
		"horizon on a tick instant and mid-period, then resume": func(r *tickerRig) {
			r.every(p, 0, func() { r.hit(100) })
			r.every(3*Millisecond, Millisecond, func() { r.hit(101) })
			r.runUntil(Time(4 * p))
			r.runUntil(Time(4 * p))
			r.runUntil(Time(6*p + p/2))
			r.runUntil(Time(9 * p))
			r.runUntil(Time(20 * p))
		},
		"Engine.Stop inside fn": func(r *tickerRig) {
			n := 0
			r.every(p, 0, func() {
				n++
				r.hit(100)
				if n%4 == 0 {
					r.e.Stop()
				}
			})
			r.runUntil(Time(10 * p))
			r.runUntil(Time(10 * p))
			r.runUntil(Time(30 * p))
			r.drain(100)
			r.drain(3)
		},
		"Ticker.Stop inside fn and from another handler": func(r *tickerRig) {
			var a stopper
			na := 0
			b := r.every(p, 0, func() { r.hit(101) })
			c := r.every(7*Millisecond, 0, func() { r.hit(102) })
			d := r.every(4*Millisecond, Millisecond, func() { r.hit(103) })
			a = r.every(3*Millisecond, 0, func() {
				na++
				r.hit(100)
				switch na {
				case 5:
					d.Stop()
				case 9:
					a.Stop()
					a.Stop()
				}
			})
			r.e.ScheduleAt(Time(8*p+p/2), func() { r.hit(1); c.Stop() })
			r.e.ScheduleAt(Time(12*p), func() { r.hit(2); b.Stop() })
			r.runUntil(Time(30 * p))
			b.Stop()
			r.runUntil(Time(40 * p))
		},
		"two tickers with equal periods": func(r *tickerRig) {
			r.every(p, 0, func() { r.hit(100) })
			r.every(p, 0, func() { r.hit(101) })
			r.every(p, 2*Millisecond, func() { r.hit(102) })
			r.runUntil(Time(20 * p))
		},
		"drain cap": func(r *tickerRig) {
			r.every(Millisecond, 0, func() { r.hit(100) })
			r.drain(50)
			r.runUntil(r.e.Now().Add(5 * Millisecond))
			r.drain(3)
		},
	}
	for name, program := range programs {
		t.Run(name, func(t *testing.T) { checkTickerEquivalence(t, 1, program) })
	}
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 300; seed++ {
			checkTickerEquivalence(t, seed, randomTickerProgram(seed))
		}
	})
}

// randomTickerProgram mixes tickers (jittered or not, created up front or
// by a handler), one-shot events on and off tick instants, Engine.Stop,
// Ticker.Stop, run horizons on and off tick instants and capped drains.
// Its choices come from its own source, drawn in handler order, so both
// rigs see the same program as long as they run handlers in the same order.
func randomTickerProgram(seed int64) func(r *tickerRig) {
	return func(r *tickerRig) {
		prog := rand.New(rand.NewSource(seed))
		periods := []Duration{2 * Millisecond, 3 * Millisecond, 5 * Millisecond, 5 * Millisecond}
		delays := []Duration{0, Millisecond, 2 * Millisecond, 3 * Millisecond, 5 * Millisecond, 10 * Millisecond}
		var tickers []stopper
		ids := 0
		var act func(self int)
		newTicker := func() {
			i := len(tickers)
			var jitter Duration
			if prog.Intn(3) == 0 {
				jitter = Duration(1+prog.Intn(3)) * Millisecond
			}
			tickers = append(tickers, r.every(periods[prog.Intn(len(periods))], jitter, func() {
				r.hit(100 + i)
				act(i)
			}))
		}
		newEvent := func() {
			ids++
			id := ids
			d := Duration(prog.Int63n(int64(20 * Millisecond)))
			if prog.Intn(4) > 0 {
				d = delays[prog.Intn(len(delays))]
			}
			r.e.Schedule(d, func() {
				r.hit(id)
				act(-1)
			})
		}
		act = func(self int) {
			switch x := prog.Intn(50); {
			case x < 8:
				newEvent()
			case x == 8:
				r.e.Stop()
			case x == 9 && self >= 0:
				tickers[self].Stop()
			case x == 10:
				tickers[prog.Intn(len(tickers))].Stop()
			case x == 11 && len(tickers) < 6:
				newTicker()
			}
		}
		for n := 1 + prog.Intn(3); n > 0; n-- {
			newTicker()
		}
		for n := prog.Intn(5); n > 0; n-- {
			newEvent()
		}
		for n := 0; n < 6; n++ {
			end := r.e.Now().Add(Duration(prog.Intn(31)) * Millisecond)
			if prog.Intn(3) == 0 {
				end = r.e.Now().Add(Duration(prog.Int63n(int64(30 * Millisecond))))
			}
			r.runUntil(end)
		}
		r.drain(uint64(prog.Intn(200)))
		r.runUntil(r.e.Now().Add(10 * Millisecond))
	}
}

// TestDrainCapCountsTicks pins Drain's cap on a ticker, the one event
// that never leaves the queue: the drain must stop with the cap error
// after exactly cap handler runs, leave the next tick queued, and a later
// RunUntil must resume it.
func TestDrainCapCountsTicks(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.NewTicker(Millisecond, func() { n++ })
	if err := e.drain(1000); err == nil {
		t.Fatal("drain of a lone ticker returned nil")
	}
	if n != 1000 || e.Executed != 1000 {
		t.Fatalf("ran %d ticks (Executed = %d), want exactly 1000", n, e.Executed)
	}
	if e.PendingEvents() != 1 {
		t.Fatalf("PendingEvents = %d, want 1 (the next tick)", e.PendingEvents())
	}
	e.RunUntil(e.Now().Add(Millisecond))
	if n != 1001 {
		t.Fatalf("ticks = %d after RunUntil, want 1001", n)
	}
}

// TestUncontendedTicksSkipHeap pins the fast path: 1,000 ticks of a lone
// ticker inside one run take one slot from the heap and give one back
// (the first tick's pop, the re-arm past the horizon), yet consume 1,000
// sequence numbers, as many as the heap path would.
func TestUncontendedTicksSkipHeap(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.NewTicker(Millisecond, func() { n++ })
	e.RunUntil(Time(Millisecond))
	gens := func() (sum uint64) {
		for _, ev := range e.q.slab {
			sum += uint64(ev.gen)
		}
		return sum
	}
	gen0, seq0 := gens(), e.q.seq
	e.RunUntil(Time(1001 * Millisecond))
	if n != 1001 {
		t.Fatalf("ticks = %d, want 1001", n)
	}
	if released := gens() - gen0; released != 1 {
		t.Fatalf("1,000 uncontended ticks released %d heap slots, want 1", released)
	}
	if seqs := e.q.seq - seq0; seqs != 1000 {
		t.Fatalf("1,000 ticks consumed %d sequence numbers, want 1000", seqs)
	}
	if e.PendingEvents() != 1 {
		t.Fatalf("PendingEvents = %d, want 1 (the tick past the horizon)", e.PendingEvents())
	}
}

// TestAllocsTickerUncontended guards the periodic path when nothing else
// is queued: a running ticker must not allocate per tick.
func TestAllocsTickerUncontended(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.NewTicker(Millisecond, func() { n++ })
	e.RunFor(Second) // steady state
	allocs := testing.AllocsPerRun(100, func() {
		e.RunFor(10 * Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("uncontended ticker allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocsTickerContended repeats the guard with two tickers of equal
// period, so every tick finds another event at its instant.
func TestAllocsTickerContended(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.NewTicker(Millisecond, func() { n++ })
	e.NewTicker(Millisecond, func() { n++ })
	e.RunFor(Second)
	allocs := testing.AllocsPerRun(100, func() {
		e.RunFor(10 * Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("contended tickers allocate %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkTickerUncontended times one tick of a lone ticker.
func BenchmarkTickerUncontended(b *testing.B) {
	e := NewEngine(1)
	e.NewTicker(Millisecond, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	e.RunFor(Duration(b.N) * Millisecond)
}

// BenchmarkTickerContended times one period of two equal-period tickers
// (two ticks, each finding the other's event at its instant).
func BenchmarkTickerContended(b *testing.B) {
	e := NewEngine(1)
	e.NewTicker(Millisecond, func() {})
	e.NewTicker(Millisecond, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	e.RunFor(Duration(b.N) * Millisecond)
}
