package experiments

import (
	"strconv"

	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/metrics"
)

// Fig6Config parameterizes the cache-size sweep (§5.1, Fig 6): source
// retransmissions drop sharply once caches are large enough to hold
// missing packets until the next retransmission request.
type Fig6Config struct {
	Sizes           []int
	CacheSizes      []int
	ConstantRates   []float64 // additional constant-feedback curves
	TransferPackets int
	Runs            int
	Seconds         float64
	Seed            int64
}

// Fig6Defaults returns the experiment at the given scale.
func Fig6Defaults(scale float64) Fig6Config {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	runs := int(8 * scale)
	if runs < 2 {
		runs = 2
	}
	pkts := int(400 * scale)
	if pkts < 100 {
		pkts = 100
	}
	return Fig6Config{
		Sizes:           []int{4, 8},
		CacheSizes:      []int{1, 2, 4, 8, 16, 32, 64, 128},
		ConstantRates:   []float64{0.1},
		TransferPackets: pkts,
		Runs:            runs,
		Seconds:         4000,
		Seed:            61,
	}
}

// Fig6 reproduces Fig 6: source retransmissions vs cache size for
// several network sizes and feedback regimes (variable feedback, then
// each constant rate).
func Fig6(cfg Fig6Config) Figure {
	return Figure{
		Matrix: campaign.Matrix{
			Name:   "fig6",
			Config: cfg,
			Axes: []campaign.Axis{
				{Name: "netSize", Values: campaign.Ints(cfg.Sizes...)},
				{Name: "feedback", Values: campaign.Floats(append([]float64{0}, cfg.ConstantRates...)...)},
				{Name: "cacheSize", Values: campaign.Ints(cfg.CacheSizes...)},
			},
			Runs:   cfg.Runs,
			SeedFn: runSeeds(cfg.Seed, 3571),
		},
		Scenario: func(cell campaign.Cell, seed int64) Scenario {
			n := cell.Int("netSize")
			return Scenario{
				Name:          "fig6",
				Proto:         JTP,
				Topo:          Linear,
				Nodes:         n,
				Seconds:       cfg.Seconds,
				Seed:          seed,
				CacheCapacity: cell.Int("cacheSize"),
				Flows: []FlowSpec{{
					Src: 0, Dst: n - 1, StartAt: 50,
					TotalPackets:         cfg.TransferPackets,
					ConstantFeedbackRate: cell.Float("feedback"),
				}},
			}
		},
		Sample: func(rec *metrics.RunRecord) campaign.Sample {
			return campaign.Sample{
				obsSourceRtx: float64(rec.SourceRetransmissions()),
				obsCacheHits: float64(rec.CacheHits),
			}
		},
		Tables: func(rep *campaign.Report) []*metrics.Table {
			t := metrics.NewTable(
				"Fig 6: source retransmissions vs cache size (packets)",
				"netSize", "feedback", "cacheSize", "sourceRtx", "±CI", "cacheHits")
			for _, c := range rep.Cells {
				rtx, hits := c.Running(obsSourceRtx), c.Running(obsCacheHits)
				t.AddRow(c.Cell.Int("netSize"), feedbackLabel(c.Cell.Float("feedback")), c.Cell.Int("cacheSize"),
					rtx.Mean(), rtx.CI95(), hits.Mean())
			}
			return []*metrics.Table{t}
		},
	}
}

// feedbackLabel names a feedback regime: a constant rate in packets/s,
// or "variable" for a rate that is not positive.
func feedbackLabel(rate float64) string {
	if rate <= 0 {
		return "variable"
	}
	return strconv.FormatFloat(rate, 'g', -1, 64) + "/s"
}
