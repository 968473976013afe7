// Package flipflop implements the flip-flop filter of JTP's destination
// path monitor (paper §5.1).
//
// The monitor keeps an EWMA of a path metric x̄ and an EWMA of its range R̄
// (mean successive absolute difference), and derives statistical
// quality-control limits
//
//	UCL = x̄ + 3·R̄/1.128    LCL = x̄ − 3·R̄/1.128
//
// (1.128 is the d2 constant for moving ranges of two observations, per
// Montgomery's SQC text [23]). Samples inside the limits are "stable" and
// are folded in with a small (stable) weight; a run of consecutive
// outliers signals a persistent path change: the monitor switches to an
// agile (large-weight) filter so the average catches up, and reports the
// change so the destination can send early feedback.
package flipflop

// The filter's parameters (§5.1).
const (
	// stableAlpha is the EWMA weight used while the path is stable.
	// Small, so short-term variation is filtered out.
	stableAlpha = 0.1
	// agileAlpha is the weight used after a persistent change is
	// detected, so the estimate catches up with the new operating point.
	agileAlpha = 0.5
	// rangeBeta is the weight for the moving-range EWMA R̄.
	rangeBeta = 0.1
	// outlierRun is the number of consecutive out-of-limits samples that
	// constitutes a persistent change (and triggers early feedback).
	outlierRun = 3
	// limitK scales the control limits: UCL/LCL = x̄ ± limitK·R̄/1.128.
	// The paper uses the classic 3-sigma value.
	limitK = 3
	// minRelRange floors R̄ at this fraction of |x̄| when computing the
	// limits. Moving-range charts assume independent samples; path
	// metrics are heavily autocorrelated (they come from EWMAs inside
	// the MAC), so successive differences can shrink toward zero and
	// collapse the limits onto the mean, declaring shifts forever. The
	// floor keeps the band no tighter than a fixed relative width.
	minRelRange = 0.06
)

// d2 is the SQC constant converting a mean moving range of two
// observations into an estimate of the process standard deviation.
const d2 = 1.128

// Mode identifies which of the two EWMA filters is active.
type Mode int

const (
	// Stable is the low-gain filter used in quiet conditions.
	Stable Mode = iota
	// Agile is the high-gain filter used while catching up after a
	// persistent change.
	Agile
)

// String names the mode.
func (m Mode) String() string {
	if m == Agile {
		return "agile"
	}
	return "stable"
}

// Event is the monitor's verdict about one sample.
type Event int

const (
	// InLimits means the sample fell inside the control limits.
	InLimits Event = iota
	// Outlier means the sample fell outside the limits but the run of
	// outliers is still shorter than outlierRun.
	Outlier
	// Shift means this sample completed a run of outlierRun consecutive
	// outliers: the path state has persistently changed and the
	// destination should send immediate feedback.
	Shift
)

// String names the event.
func (e Event) String() string {
	switch e {
	case Outlier:
		return "outlier"
	case Shift:
		return "shift"
	}
	return "in-limits"
}

// Filter is a flip-flop filter for one path metric. The zero value is an
// unprimed filter, as New returns.
type Filter struct {
	mean float64
	rng  float64 // R̄, EWMA of |x_i − x_{i−1}|
	last float64
	n    int
	run  int // consecutive outliers
	mode Mode
}

// New returns an unprimed filter.
func New() *Filter { return &Filter{} }

// Mean returns the current EWMA estimate x̄.
func (f *Filter) Mean() float64 { return f.mean }

// Primed reports whether the filter has seen at least one sample.
func (f *Filter) Primed() bool { return f.n > 0 }

// Limits returns the current lower and upper control limits. Before the
// filter is primed both are zero.
func (f *Filter) Limits() (lcl, ucl float64) {
	rng := f.rng
	if floor := minRelRange * abs(f.mean); rng < floor {
		rng = floor
	}
	w := limitK * rng / d2
	return f.mean - w, f.mean + w
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// UCL returns the upper control limit (used by the energy-budget
// controller, §5.2.4).
func (f *Filter) UCL() float64 {
	_, ucl := f.Limits()
	return ucl
}

// Observe folds one sample into the monitor and reports whether it was in
// limits, an outlier, or completed a persistent shift. Per the paper:
//
//   - x̄ is initialized to x0 and R̄ to x0/2 on the first sample;
//   - R̄ is updated only from samples within the control limits, so a burst
//     of outliers does not inflate the limits before the shift is declared;
//   - after a shift the agile filter is used until a sample falls back
//     inside the limits, when the monitor flips back to the stable filter.
func (f *Filter) Observe(x float64) Event {
	if f.n == 0 {
		f.mean = x
		f.rng = abs(x / 2)
		f.last = x
		f.n = 1
		return InLimits
	}

	lcl, ucl := f.Limits()
	inLimits := x >= lcl && x <= ucl

	alpha := stableAlpha
	if f.mode == Agile {
		alpha = agileAlpha
	}

	if inLimits {
		// Sample agrees with the current operating point: update both
		// EWMAs; if we were agile we have caught up, flip back to stable.
		f.mean = (1-alpha)*f.mean + alpha*x
		f.foldRange(x)
		f.run = 0
		f.mode = Stable
		f.last = x
		f.n++
		return InLimits
	}

	// Outlier: count the run. The mean is still nudged (with the active
	// alpha) so the estimate tracks genuine shifts. In stable mode the
	// range is frozen so a burst of outliers cannot widen the limits
	// before the shift is declared; in agile mode the range does update,
	// otherwise the limits could never re-capture a regime whose variance
	// grew, and the monitor would signal shifts forever.
	f.run++
	f.mean = (1-alpha)*f.mean + alpha*x
	if f.mode == Agile {
		f.foldRange(x)
	}
	f.last = x
	f.n++
	if f.run >= outlierRun {
		f.run = 0
		f.mode = Agile
		return Shift
	}
	return Outlier
}

// foldRange folds the sample's distance from the previous one into R̄.
func (f *Filter) foldRange(x float64) {
	f.rng = (1-rangeBeta)*f.rng + rangeBeta*abs(x-f.last)
}
