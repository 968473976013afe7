package channel

import (
	"math"
	"testing"

	"github.com/javelen/jtp/internal/sim"
)

func TestLossProbStates(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := Defaults()
	c := New(eng, cfg)
	c.ForceState(0, 1, false, sim.Duration(math.MaxInt64/2))
	if p := c.LossProb(0, 1); p != cfg.GoodLoss {
		t.Fatalf("good-state loss = %v, want %v", p, cfg.GoodLoss)
	}
	c.ForceState(0, 1, true, sim.Duration(math.MaxInt64/2))
	if p := c.LossProb(0, 1); p != cfg.BadLoss {
		t.Fatalf("bad-state loss = %v, want %v", p, cfg.BadLoss)
	}
}

func TestSymmetricLinkState(t *testing.T) {
	eng := sim.NewEngine(2)
	c := New(eng, Defaults())
	c.ForceState(3, 7, true, sim.Duration(math.MaxInt64/2))
	if !c.Bad(7, 3) {
		t.Fatal("link state must be shared between directions")
	}
}

func TestStaticChannel(t *testing.T) {
	eng := sim.NewEngine(3)
	c := New(eng, Testbed())
	for i := 0; i < 100; i++ {
		eng.RunUntil(eng.Now().Add(10 * sim.Second))
		if c.Bad(0, 1) {
			t.Fatal("static channel went bad")
		}
	}
	if c.ExpectedLoss() != Testbed().GoodLoss {
		t.Fatalf("static expected loss = %v", c.ExpectedLoss())
	}
}

func TestBadFractionLongRun(t *testing.T) {
	eng := sim.NewEngine(4)
	cfg := Defaults()
	c := New(eng, cfg)
	bad := 0
	const samples = 20000
	for i := 0; i < samples; i++ {
		eng.RunUntil(eng.Now().Add(500 * sim.Millisecond))
		if c.Bad(0, 1) {
			bad++
		}
	}
	frac := float64(bad) / samples
	if frac < cfg.BadFraction*0.7 || frac > cfg.BadFraction*1.3 {
		t.Fatalf("empirical bad fraction %.4f, configured %.2f", frac, cfg.BadFraction)
	}
}

func TestTransmitOKRate(t *testing.T) {
	eng := sim.NewEngine(5)
	cfg := Defaults()
	c := New(eng, cfg)
	c.ForceState(0, 1, false, sim.Duration(math.MaxInt64/2))
	ok := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if c.TransmitOK(0, 1) {
			ok++
		}
	}
	rate := float64(ok) / trials
	want := 1 - cfg.GoodLoss
	if math.Abs(rate-want) > 0.01 {
		t.Fatalf("good-state success rate %.4f, want ≈%.2f", rate, want)
	}
}

func TestExpectedLoss(t *testing.T) {
	cfg := Defaults()
	eng := sim.NewEngine(6)
	c := New(eng, cfg)
	want := cfg.BadFraction*cfg.BadLoss + (1-cfg.BadFraction)*cfg.GoodLoss
	if math.Abs(c.ExpectedLoss()-want) > 1e-12 {
		t.Fatalf("expected loss %v, want %v", c.ExpectedLoss(), want)
	}
}

func TestInRange(t *testing.T) {
	eng := sim.NewEngine(7)
	c := New(eng, Defaults())
	r := c.Range()
	if !c.InRange(r * r) {
		t.Fatal("boundary should be in range")
	}
	if c.InRange(r*r + 1) {
		t.Fatal("beyond range accepted")
	}
}

func TestMeanBadPeriod(t *testing.T) {
	// Measure mean sojourn length in the bad state over a long run.
	eng := sim.NewEngine(8)
	cfg := Defaults()
	c := New(eng, cfg)
	var badSpans []float64
	inBad := false
	start := 0.0
	for i := 0; i < 400000; i++ {
		eng.RunUntil(eng.Now().Add(100 * sim.Millisecond))
		b := c.Bad(0, 1)
		now := eng.Now().Seconds()
		switch {
		case b && !inBad:
			inBad, start = true, now
		case !b && inBad:
			inBad = false
			badSpans = append(badSpans, now-start)
		}
	}
	if len(badSpans) < 100 {
		t.Fatalf("too few bad periods observed: %d", len(badSpans))
	}
	mean := 0.0
	for _, s := range badSpans {
		mean += s
	}
	mean /= float64(len(badSpans))
	// 100ms sampling quantization inflates the estimate slightly.
	if mean < cfg.MeanBadPeriod*0.7 || mean > cfg.MeanBadPeriod*1.4 {
		t.Fatalf("mean bad period %.2fs, configured %.1fs", mean, cfg.MeanBadPeriod)
	}
}
