package experiments

import (
	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/stats"
)

// Fig5Config parameterizes the back-off fairness experiment: two
// competing flows on a linear chain; flow 1 never requests
// retransmissions (UDP-like), flow 2 requires full reliability and so
// exercises the in-network recovery that back-off compensates for.
type Fig5Config struct {
	Nodes   int
	Seconds float64
	// BinSeconds is the short-term averaging window.
	BinSeconds float64
	Seed       int64
}

// Fig5Defaults returns the experiment at the given scale: below full
// scale a run lasts 2·scale of the paper's 1800 s, but at least 600 s.
func Fig5Defaults(scale float64) Fig5Config {
	cfg := Fig5Config{Nodes: 6, Seconds: 1800, BinSeconds: 20, Seed: 51}
	if scale < 1 {
		cfg.Seconds *= scale * 2
		if cfg.Seconds < 600 {
			cfg.Seconds = 600
		}
	}
	return cfg
}

// Observables of a Fig 5 run: each flow's mean binned reception rate.
const (
	obsFlow1PPS = "flow1_pps"
	obsFlow2PPS = "flow2_pps"
)

// Fig5 runs the experiment twice — with and without back-off (paper
// Fig 5 left/right columns) — and summarizes both runs: mean reception
// rates and the fairness gap (flow2/flow1). Without back-off, flow 2's
// effective share exceeds its fair allocation.
func Fig5(cfg Fig5Config) Figure {
	return Figure{
		Matrix: campaign.Matrix{
			Name:   "fig5",
			Config: cfg,
			Axes:   []campaign.Axis{{Name: "backoff", Values: []any{true, false}}},
			SeedFn: runSeeds(cfg.Seed, 0),
		},
		Scenario: func(cell campaign.Cell, seed int64) Scenario {
			noBackoff := cell.String("backoff") == "false"
			return Scenario{
				Name:    "fig5",
				Proto:   JTP,
				Topo:    Linear,
				Nodes:   cfg.Nodes,
				Seconds: cfg.Seconds,
				Seed:    seed,
				Flows: []FlowSpec{
					{ // Flow 1: UDP-like, no retransmission requests.
						Src: 0, Dst: cfg.Nodes - 1, StartAt: 100,
						LossTolerance:          0.10,
						DisableRetransmissions: true,
						DisableBackoff:         noBackoff,
					},
					{ // Flow 2: fully reliable, exercising local recovery.
						Src: 0, Dst: cfg.Nodes - 1, StartAt: 130,
						LossTolerance:  0,
						DisableBackoff: noBackoff,
					},
				},
			}
		},
		Sample: func(rec *metrics.RunRecord) campaign.Sample {
			return campaign.Sample{
				obsFlow1PPS: rateBin(rec.Flows[0].Reception, cfg.BinSeconds).Mean(),
				obsFlow2PPS: rateBin(rec.Flows[1].Reception, cfg.BinSeconds).Mean(),
			}
		},
		Tables: func(rep *campaign.Report) []*metrics.Table {
			t := metrics.NewTable(
				"Fig 5: reception rate of two competing flows, with/without source back-off (pps)",
				"backoff", "flow1(pps)", "flow2(pps)", "flow2/flow1")
			for _, c := range rep.Cells {
				f1, f2 := c.Running(obsFlow1PPS), c.Running(obsFlow2PPS)
				ratio := 0.0
				if f1.Mean() > 0 {
					ratio = f2.Mean() / f1.Mean()
				}
				t.AddRow(c.Cell.String("backoff"), f1.Mean(), f2.Mean(), ratio)
			}
			return []*metrics.Table{t}
		},
	}
}

// rateBin converts a per-delivery series (V=1 per packet) into a
// packets/s rate series with the given bin width.
func rateBin(s *stats.Series, width float64) *stats.Series {
	out := &stats.Series{Name: s.Name}
	if s.Len() == 0 || width <= 0 {
		return out
	}
	start := s.Samples[0].T
	edge := start + width
	count := 0
	for _, x := range s.Samples {
		for x.T >= edge {
			out.Samples = append(out.Samples, stats.Sample{T: edge - width/2, V: float64(count) / width})
			count = 0
			edge += width
		}
		count++
	}
	out.Samples = append(out.Samples, stats.Sample{T: edge - width/2, V: float64(count) / width})
	return out
}
