package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Primed() {
		t.Fatal("fresh EWMA should be unprimed")
	}
	if v := e.Add(10); v != 10 {
		t.Fatalf("first sample should initialize: %v", v)
	}
	if v := e.Add(20); v != 15 {
		t.Fatalf("second sample: %v, want 15", v)
	}
	e.Set(100)
	if e.Value() != 100 {
		t.Fatal("Set failed")
	}
	e.Reset()
	if e.Primed() || e.Value() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.1)
	for i := 0; i < 500; i++ {
		e.Add(7)
	}
	if math.Abs(e.Value()-7) > 1e-9 {
		t.Fatalf("EWMA of constant stream = %v", e.Value())
	}
}

func TestRunningAgainstNaive(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if math.Abs(r.Mean()-mean) > 1e-12 {
		t.Fatalf("mean %v vs naive %v", r.Mean(), mean)
	}
	varSum := 0.0
	for _, x := range xs {
		varSum += (x - mean) * (x - mean)
	}
	naiveVar := varSum / float64(len(xs)-1)
	if math.Abs(r.Variance()-naiveVar) > 1e-12 {
		t.Fatalf("variance %v vs naive %v", r.Variance(), naiveVar)
	}
	if r.Min() != 1 || r.Max() != 9 || r.N() != 10 {
		t.Fatalf("min/max/n wrong: %v %v %v", r.Min(), r.Max(), r.N())
	}
	if math.Abs(r.Sum()-39) > 1e-12 {
		t.Fatalf("sum = %v", r.Sum())
	}
}

func TestRunningWelfordProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var r Running
		sum := 0.0
		for _, x := range xs {
			// bound magnitude to keep float comparisons honest
			x = math.Mod(x, 1e6)
			if math.IsNaN(x) {
				continue
			}
			r.Add(x)
			sum += x
		}
		if r.N() == 0 {
			return r.Mean() == 0
		}
		return math.Abs(r.Mean()-sum/float64(r.N())) < 1e-6*(1+math.Abs(sum))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCI95(t *testing.T) {
	var r Running
	if r.CI95() != 0 {
		t.Fatal("empty CI should be 0")
	}
	r.Add(5)
	if r.CI95() != 0 {
		t.Fatal("single-sample CI should be 0")
	}
	for i := 0; i < 19; i++ {
		r.Add(5)
	}
	if r.CI95() != 0 {
		t.Fatal("zero-variance CI should be 0")
	}
	var r2 Running
	for i := 0; i < 20; i++ {
		r2.Add(float64(i % 2)) // alternating 0/1
	}
	ci := r2.CI95()
	// stddev ≈ 0.513, t(19) ≈ 2.093, n=20 → ci ≈ 0.24
	if ci < 0.2 || ci > 0.3 {
		t.Fatalf("CI95 = %v, expected ≈0.24", ci)
	}
}

func TestTCritical(t *testing.T) {
	if tCritical95(1) != 12.706 {
		t.Fatalf("df=1: %v", tCritical95(1))
	}
	if tCritical95(30) != 2.042 {
		t.Fatalf("df=30: %v", tCritical95(30))
	}
	if tCritical95(1000) != 1.960 {
		t.Fatalf("df large: %v", tCritical95(1000))
	}
	if tCritical95(0) != 0 {
		t.Fatal("df=0 should be 0")
	}
}

func TestSeriesBasics(t *testing.T) {
	var s Series
	s.Add(1, 10)
	s.Add(2, 20)
	s.Add(3, 30)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Mean() != 20 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	sub := s.Between(1.5, 3)
	if sub.Len() != 1 || sub.Samples[0].V != 20 {
		t.Fatalf("Between failed: %+v", sub.Samples)
	}
}

// foldAll returns a Running fed the samples one at a time.
func foldAll(xs []float64) Running {
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	return r
}

// TestStateRoundTrip pins the export/restore contract: State→Restore
// reproduces the accumulator bit-for-bit, through JSON too.
func TestStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = (rng.Float64() - 0.3) * math.Pow(10, float64(rng.Intn(12)-6))
		}
		r := foldAll(xs)
		st := r.State()

		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var back RunningState
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != st {
			t.Fatalf("trial %d: JSON round trip changed state: %+v vs %+v", trial, back, st)
		}

		got := Restore(back)
		if got != r {
			t.Fatalf("trial %d: Restore(State()) = %+v, want %+v", trial, got, r)
		}
		// Continuing to fold after restore behaves like the original.
		r.Add(1.5)
		got.Add(1.5)
		if got != r {
			t.Fatalf("trial %d: post-restore fold diverged", trial)
		}
	}
}
