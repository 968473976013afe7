package experiments

import (
	"github.com/javelen/jtp/internal/core"
	"github.com/javelen/jtp/internal/flipflop"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/stats"
)

// Fig8Result captures the rate-adaptation traces of Fig 8: flow 1's
// path-monitor behaviour (reported available rate, flip-flop mean,
// control limits) and both flows' instantaneous throughput, while a
// short-lived flow 2 comes and goes.
type Fig8Result struct {
	// Throughput holds binned reception rates for flows 1 and 2.
	Throughput [2]*stats.Series
	// Reported is flow 1's raw path-monitor samples (min available rate).
	Reported *stats.Series
	// Mean is the flip-flop mean after each sample.
	Mean *stats.Series
	// LCL and UCL are the control limits before each sample.
	LCL, UCL *stats.Series
	// Shifts are the times the monitor declared a persistent change.
	Shifts []float64
	// Flow2Start and Flow2End are flow 2's lifetime.
	Flow2Start, Flow2End float64
}

// Fig8Config parameterizes the rate-adaptation experiment (§5.2.3).
type Fig8Config struct {
	Nodes int
	// Flow2Start/Flow2End bound the short-lived competing flow
	// (paper: 1000 and 1250 s).
	Flow2Start, Flow2End float64
	Seconds              float64
	BinSeconds           float64
	Seed                 int64
}

// Fig8Defaults returns the paper's timeline.
func Fig8Defaults() Fig8Config {
	return Fig8Config{
		Nodes:      6,
		Flow2Start: 1000,
		Flow2End:   1250,
		Seconds:    1500,
		BinSeconds: 10,
		Seed:       81,
	}
}

// Fig8 reproduces Fig 8: two competing JTP flows, the long-lived flow's
// monitor switching between stable and agile filters as the short-lived
// flow starts and stops.
func Fig8(cfg Fig8Config) *Fig8Result {
	res := &Fig8Result{
		Reported:   &stats.Series{Name: "reported"},
		Mean:       &stats.Series{Name: "mean"},
		LCL:        &stats.Series{Name: "lcl"},
		UCL:        &stats.Series{Name: "ucl"},
		Flow2Start: cfg.Flow2Start,
		Flow2End:   cfg.Flow2End,
	}
	var recs [2]*stats.Series
	must(RunWithHooks(Scenario{
		Name:    "fig8",
		Proto:   JTP,
		Topo:    Linear,
		Nodes:   cfg.Nodes,
		Seconds: cfg.Seconds,
		Seed:    cfg.Seed,
		Flows: []FlowSpec{
			{Src: 0, Dst: cfg.Nodes - 1, StartAt: 100}, // long-lived flow 1
			{Src: 0, Dst: cfg.Nodes - 1, StartAt: cfg.Flow2Start, StopAt: cfg.Flow2End},
		},
	}, Hooks{
		JTPConn: func(i int, conn *core.Connection) {
			recs[i] = conn.Receiver.Reception()
			if i == 0 {
				conn.Receiver.OnRateSample = func(ms core.MonitorSample) {
					res.Reported.Add(ms.T, ms.Reported)
					res.Mean.Add(ms.T, ms.Mean)
					res.LCL.Add(ms.T, ms.LCL)
					res.UCL.Add(ms.T, ms.UCL)
					if ms.Event == flipflop.Shift {
						res.Shifts = append(res.Shifts, ms.T)
					}
				}
			}
		},
	}))
	for i := 0; i < 2; i++ {
		res.Throughput[i] = rateBin(recs[i], cfg.BinSeconds)
	}
	return res
}

// Fig8Summary summarizes the adaptation: flow 1's throughput before,
// during and after flow 2, plus monitor shift count around the two
// transitions.
func Fig8Summary(res *Fig8Result, cfg Fig8Config) *metrics.Table {
	t := metrics.NewTable(
		"Fig 8: rate adaptation of two competing JTP flows (pps)",
		"window", "flow1(pps)", "flow2(pps)", "monitor shifts")
	windows := []struct {
		name   string
		t0, t1 float64
	}{
		{"before flow2", 200, cfg.Flow2Start},
		{"during flow2", cfg.Flow2Start + 50, cfg.Flow2End},
		{"after flow2", cfg.Flow2End + 50, cfg.Seconds},
	}
	for _, w := range windows {
		shifts := 0
		for _, s := range res.Shifts {
			if s >= w.t0 && s < w.t1 {
				shifts++
			}
		}
		t.AddRow(w.name,
			res.Throughput[0].Between(w.t0, w.t1).Mean(),
			res.Throughput[1].Between(w.t0, w.t1).Mean(),
			shifts)
	}
	return t
}
