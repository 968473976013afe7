package flipflop

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFirstSampleInitializes(t *testing.T) {
	f := New(Defaults())
	if f.Primed() {
		t.Fatal("fresh filter should be unprimed")
	}
	ev := f.Observe(10)
	if ev != InLimits {
		t.Fatalf("first sample event = %v", ev)
	}
	if f.Mean() != 10 {
		t.Fatalf("x̄ init = %v, want x0", f.Mean())
	}
	if f.rng != 5 {
		t.Fatalf("R̄ init = %v, want x0/2", f.rng)
	}
}

func TestLimitsMath(t *testing.T) {
	f := New(Defaults())
	f.Observe(10)
	lcl, ucl := f.Limits()
	w := 3.0 * 5.0 / 1.128
	if abs(lcl-(10-w)) > 1e-9 || abs(ucl-(10+w)) > 1e-9 {
		t.Fatalf("limits (%v, %v), want (%v, %v)", lcl, ucl, 10-w, 10+w)
	}
	if f.UCL() != ucl {
		t.Fatal("UCL() disagrees with Limits()")
	}
}

func TestStableFiltering(t *testing.T) {
	f := New(Defaults())
	for i := 0; i < 100; i++ {
		v := 10.0
		if i%2 == 0 {
			v = 10.5
		}
		ev := f.Observe(v)
		if ev == Shift {
			t.Fatalf("stable stream produced a shift at sample %d", i)
		}
	}
	if f.mode != Stable {
		t.Fatal("mode should remain stable")
	}
	if m := f.Mean(); m < 10 || m > 10.5 {
		t.Fatalf("mean drifted: %v", m)
	}
}

func TestShiftDetectionAndAgileCatchup(t *testing.T) {
	cfg := Defaults()
	f := New(cfg)
	for i := 0; i < 50; i++ {
		f.Observe(10 + 0.2*float64(i%2))
	}
	before := f.Mean()
	// Step change far outside the limits.
	var sawShift bool
	steps := 0
	for i := 0; i < 50; i++ {
		ev := f.Observe(30)
		steps++
		if ev == Shift {
			sawShift = true
			break
		}
	}
	if !sawShift {
		t.Fatal("step change never declared a shift")
	}
	if steps != cfg.OutlierRun {
		t.Fatalf("shift after %d samples, want OutlierRun=%d", steps, cfg.OutlierRun)
	}
	if f.mode != Agile {
		t.Fatal("mode should be agile after shift")
	}
	// Agile filter must catch up quickly.
	for i := 0; i < 20; i++ {
		f.Observe(30)
	}
	if f.Mean() < 25 {
		t.Fatalf("agile catch-up too slow: mean %v (was %v)", f.Mean(), before)
	}
	// And flip back to stable once samples are in limits again.
	if f.mode != Stable {
		t.Fatalf("mode after catch-up = %v, want stable", f.mode)
	}
}

func TestNoPerpetualShiftStorm(t *testing.T) {
	// A regime whose variance grows must eventually be re-captured by
	// the limits instead of signalling shifts forever.
	f := New(Defaults())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		f.Observe(10 + rng.Float64()*0.1)
	}
	shifts := 0
	for i := 0; i < 400; i++ {
		// noisy new regime: mean 20, swing ±6
		f.Observe(20 + rng.Float64()*12 - 6)
		if f.Observe(20+rng.Float64()*12-6) == Shift {
			shifts++
		}
	}
	if shifts > 40 {
		t.Fatalf("shift storm: %d shifts in 400 samples of a stationary regime", shifts)
	}
}

func TestOutlierRunInterrupted(t *testing.T) {
	f := New(Config{StableAlpha: 0.1, AgileAlpha: 0.5, RangeBeta: 0.1, OutlierRun: 3, LimitK: 3})
	for i := 0; i < 20; i++ {
		f.Observe(10 + 0.2*float64(i%2))
	}
	// Two outliers then an in-limits sample: no shift.
	if ev := f.Observe(100); ev != Outlier {
		t.Fatalf("first outlier event = %v", ev)
	}
	// The mean moved toward 100; feed a sample near the current mean.
	if ev := f.Observe(f.Mean()); ev != InLimits {
		t.Fatalf("in-limits sample after outlier = %v", ev)
	}
}

func TestModeString(t *testing.T) {
	if Stable.String() != "stable" || Agile.String() != "agile" {
		t.Fatal("mode names wrong")
	}
	if InLimits.String() != "in-limits" || Outlier.String() != "outlier" || Shift.String() != "shift" {
		t.Fatal("event names wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	f := New(Config{}) // all invalid -> defaults
	f.Observe(1)
	if f.cfg.StableAlpha != Defaults().StableAlpha || f.cfg.OutlierRun != Defaults().OutlierRun {
		t.Fatal("invalid config fields should fall back to defaults")
	}
}

func TestLimitsOrderedProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		f := New(Defaults())
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n)+2; i++ {
			f.Observe(rng.Float64() * 100)
			lcl, ucl := f.Limits()
			if lcl > f.Mean() || ucl < f.Mean() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkFlipflopObserve measures the path-monitor filter per sample.
func BenchmarkFlipflopObserve(b *testing.B) {
	f := New(Defaults())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Observe(10 + float64(i%7))
	}
}
