// Package stats provides the statistical helpers used across the
// reproduction: running means, EWMA filters, 95% confidence intervals for
// the multi-run experiments (Figs 9–11), and time series for the
// rate/monitor plots (Figs 5 and 8).
package stats

import (
	"math"
)

// EWMA is an exponentially weighted moving average with weight alpha in
// (0, 1]: est ← (1−alpha)·est + alpha·sample. The zero value is unprimed;
// the first sample initializes the estimate, matching the paper's
// "initially x̄ = x0" convention (§5.1).
type EWMA struct {
	Alpha  float64
	value  float64
	primed bool
}

// NewEWMA returns a filter with the given weight.
func NewEWMA(alpha float64) *EWMA { return &EWMA{Alpha: alpha} }

// Add folds a sample into the average and returns the new estimate.
func (e *EWMA) Add(sample float64) float64 {
	if !e.primed {
		e.value = sample
		e.primed = true
		return e.value
	}
	e.value = (1-e.Alpha)*e.value + e.Alpha*sample
	return e.value
}

// Value returns the current estimate (zero if unprimed).
func (e *EWMA) Value() float64 { return e.value }

// Primed reports whether at least one sample has been folded in.
func (e *EWMA) Primed() bool { return e.primed }

// Set forces the estimate, marking the filter primed. Used when switching
// between the stable and agile filters of the flip-flop monitor.
func (e *EWMA) Set(v float64) {
	e.value = v
	e.primed = true
}

// Reset returns the filter to the unprimed state.
func (e *EWMA) Reset() {
	e.value = 0
	e.primed = false
}

// Running accumulates count/mean/variance with Welford's algorithm.
// The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
	sum  float64
}

// Add folds in one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	r.sum += x
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of observations.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean (zero if empty).
func (r *Running) Mean() float64 { return r.mean }

// Sum returns the sum of observations.
func (r *Running) Sum() float64 { return r.sum }

// Min returns the smallest observation (zero if empty).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation (zero if empty).
func (r *Running) Max() float64 { return r.max }

// RunningState is the exported, serializable state of a Running
// accumulator. It is the exact internal representation — Restore
// followed by State round-trips bit-for-bit (encoding/json emits
// float64s in shortest round-trippable form, so a JSON round trip is
// bit-exact too). Shard result files and campaign checkpoints persist
// aggregates in this form.
type RunningState struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Sum  float64 `json:"sum"`
}

// State exports the accumulator's internal state.
func (r *Running) State() RunningState {
	return RunningState{N: r.n, Mean: r.mean, M2: r.m2, Min: r.min, Max: r.max, Sum: r.sum}
}

// Restore reconstructs an accumulator from an exported state,
// bit-identical to the accumulator that produced it.
func Restore(s RunningState) Running {
	return Running{n: s.N, mean: s.Mean, m2: s.M2, min: s.Min, max: s.Max, sum: s.Sum}
}

// Variance returns the unbiased sample variance (zero for n < 2).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Stddev returns the sample standard deviation.
func (r *Running) Stddev() float64 { return math.Sqrt(r.Variance()) }

// CI95 returns the half-width of the 95% confidence interval of the mean,
// using Student-t critical values. The paper reports 95% CIs over 10–20
// independent runs (§6.1.1).
func (r *Running) CI95() float64 {
	if r.n < 2 {
		return 0
	}
	return tCritical95(r.n-1) * r.Stddev() / math.Sqrt(float64(r.n))
}

// tCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom, from the standard table with interpolation
// falling back to the normal quantile for large df.
func tCritical95(df int) float64 {
	table := []float64{
		0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
		2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
		2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
		2.042,
	}
	if df <= 0 {
		return 0
	}
	if df < len(table) {
		return table[df]
	}
	return 1.960
}

// Sample holds a time-stamped observation in a Series.
type Sample struct {
	T float64 // virtual seconds
	V float64
}

// Series is an append-only time series used for the time-domain figures
// (reception rate, monitor values, control limits).
type Series struct {
	Name    string
	Samples []Sample
}

// Add appends an observation.
func (s *Series) Add(t, v float64) { s.Samples = append(s.Samples, Sample{t, v}) }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Samples) }

// Mean returns the mean of the sample values (zero if empty).
func (s *Series) Mean() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.Samples {
		sum += x.V
	}
	return sum / float64(len(s.Samples))
}

// Between returns the sub-series with T in [t0, t1).
func (s *Series) Between(t0, t1 float64) *Series {
	out := &Series{Name: s.Name}
	for _, x := range s.Samples {
		if x.T >= t0 && x.T < t1 {
			out.Samples = append(out.Samples, x)
		}
	}
	return out
}
