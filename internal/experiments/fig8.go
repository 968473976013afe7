package experiments

import (
	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/metrics"
)

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

// Fig8Defaults returns the paper's timeline, which is the same at every
// scale: the experiment is one run of 1500 s.
func Fig8Defaults(float64) Fig8Config {
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
// flow starts and stops. The table gives flow 1's and flow 2's binned
// throughput before, during and after flow 2, and the number of flow 1
// monitor shifts in each window.
func Fig8(cfg Fig8Config) Figure {
	// The spans before, during and after flow 2; the adaptation after
	// each transition is given 50 s to settle.
	windows := []struct {
		name   string
		t0, t1 float64
	}{
		{"before", 200, cfg.Flow2Start},
		{"during", cfg.Flow2Start + 50, cfg.Flow2End},
		{"after", cfg.Flow2End + 50, cfg.Seconds},
	}
	return Figure{
		Matrix: campaign.Matrix{Name: "fig8", SeedFn: runSeeds(cfg.Seed, 0), Config: cfg},
		Scenario: func(_ campaign.Cell, seed int64) Scenario {
			return Scenario{
				Name:    "fig8",
				Proto:   JTP,
				Topo:    Linear,
				Nodes:   cfg.Nodes,
				Seconds: cfg.Seconds,
				Seed:    seed,
				Flows: []FlowSpec{
					{Src: 0, Dst: cfg.Nodes - 1, StartAt: 100}, // long-lived flow 1
					{Src: 0, Dst: cfg.Nodes - 1, StartAt: cfg.Flow2Start, StopAt: cfg.Flow2End},
				},
			}
		},
		Sample: func(rec *metrics.RunRecord) campaign.Sample {
			flow1 := rateBin(rec.Flows[0].Reception, cfg.BinSeconds)
			flow2 := rateBin(rec.Flows[1].Reception, cfg.BinSeconds)
			s := campaign.Sample{}
			for _, w := range windows {
				shifts := 0
				for _, at := range rec.Flows[0].RateShifts {
					if at >= w.t0 && at < w.t1 {
						shifts++
					}
				}
				s[obsFlow1PPS+"_"+w.name] = flow1.Between(w.t0, w.t1).Mean()
				s[obsFlow2PPS+"_"+w.name] = flow2.Between(w.t0, w.t1).Mean()
				s["shifts_"+w.name] = float64(shifts)
			}
			return s
		},
		Tables: func(rep *campaign.Report) []*metrics.Table {
			t := metrics.NewTable(
				"Fig 8: rate adaptation of two competing JTP flows (pps)",
				"window", "flow1(pps)", "flow2(pps)", "monitor shifts")
			c := rep.Cells[0]
			for _, w := range windows {
				f1, f2 := c.Running(obsFlow1PPS+"_"+w.name), c.Running(obsFlow2PPS+"_"+w.name)
				shifts := c.Running("shifts_" + w.name)
				t.AddRow(w.name+" flow2", f1.Mean(), f2.Mean(), int(shifts.Mean()))
			}
			return []*metrics.Table{t}
		},
	}
}
