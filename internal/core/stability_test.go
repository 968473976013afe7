package core

import (
	"math"
	"testing"
	"testing/quick"
)

// These tests verify the §5.2.2 stability analysis of the PI²/MD rate
// controller numerically: for a fixed-capacity channel C,
//
//	r < C:  r ← r + K_I·(C−r)/r      (Eq 11)
//	r > C:  r ← K_D·r                (Eq 12)
//
// converges to C for any 0 < K_I and K_D < 1, with the Lyapunov
// functions V(r) = C−r and V(r) = r−C strictly decreasing in their
// regions.

// step applies one controller iteration against capacity C.
func step(r, c, ki, kd float64) float64 {
	if r < c {
		return r + ki*(c-r)/r
	}
	if r > c {
		return kd * r
	}
	return r
}

func TestLyapunovDecreaseBelowCapacity(t *testing.T) {
	const c = 10.0
	prop := func(rRaw, kiRaw float64) bool {
		r := 0.1 + math.Mod(math.Abs(rRaw), c-0.2) // r in (0, C)
		ki := 0.01 + math.Mod(math.Abs(kiRaw), 0.98)
		if math.IsNaN(r) || math.IsNaN(ki) {
			return true
		}
		next := step(r, c, ki, 0.85)
		// V(r) = C − r must strictly decrease while r stays below C...
		if next < c {
			return (c - next) < (c - r)
		}
		// ...or r overshot C, which the MD region then handles.
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestLyapunovDecreaseAboveCapacity(t *testing.T) {
	const c = 10.0
	prop := func(rRaw, kdRaw float64) bool {
		r := c + 0.1 + math.Mod(math.Abs(rRaw), 100)
		kd := 0.1 + math.Mod(math.Abs(kdRaw), 0.89) // in (0,1)
		if math.IsNaN(r) || math.IsNaN(kd) {
			return true
		}
		next := step(r, c, 0.3, kd)
		// V(r) = r − C strictly decreases (may undershoot below C,
		// where the PI region takes over).
		return next-c < r-c
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestControllerConvergesToCapacity(t *testing.T) {
	const c = 7.5
	for _, start := range []float64{0.2, 1, 5, 7.4, 7.6, 20, 200} {
		for _, gains := range [][2]float64{{0.1, 0.5}, {0.3, 0.85}, {0.9, 0.99}} {
			ki, kd := gains[0], gains[1]
			r := start
			for i := 0; i < 5000; i++ {
				r = step(r, c, ki, kd)
			}
			// Steady state oscillates in a band around C whose width is
			// set by the gains; it must bracket C from below by at most
			// the last MD step and from above by the last PI step.
			if r < c*kd*0.9 || r > c/kd*1.1 {
				t.Errorf("start=%v ki=%v kd=%v: r settled at %v, capacity %v",
					start, ki, kd, r, c)
			}
		}
	}
}

func TestConvergenceSpeedScalesWithKI(t *testing.T) {
	const c = 10.0
	iters := func(ki float64) int {
		r := 0.5
		for i := 0; i < 100000; i++ {
			if r >= c*0.95 {
				return i
			}
			r = step(r, c, ki, 0.85)
		}
		return 100000
	}
	slow, fast := iters(0.05), iters(0.8)
	if fast >= slow {
		t.Fatalf("higher K_I should converge faster: ki=0.8 took %d, ki=0.05 took %d", fast, slow)
	}
}

// TestReceiverControllerMatchesAnalysis drives the actual Receiver
// controller logic (updateControllers) against a synthetic constant
// available-rate signal and checks it rises while capacity is spare and
// decays multiplicatively when the path reports none.
func TestReceiverControllerMatchesAnalysis(t *testing.T) {
	_, nw := testNet(t, 3, cleanChannel(), 21)
	cfg := Defaults(1, 0, 2)
	r := NewReceiver(nw, cfg)

	// Spare capacity: samples well above δ.
	for i := 0; i < 50; i++ {
		r.rateMon.Observe(5.0)
		r.updateControllers()
	}
	risen := r.Rate()
	if risen <= cfg.InitialRate {
		t.Fatalf("rate did not rise with spare capacity: %v", risen)
	}

	// Path reports no available rate: multiplicative decrease.
	for i := 0; i < 200; i++ {
		r.rateMon.Observe(0.0)
		r.updateControllers()
	}
	if r.Rate() >= risen*0.5 {
		t.Fatalf("rate did not decay under congestion: %v (was %v)", r.Rate(), risen)
	}
	if r.Rate() < minRate {
		t.Fatalf("rate fell below the floor: %v", r.Rate())
	}
}
