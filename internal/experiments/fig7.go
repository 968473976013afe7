package experiments

import (
	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/mac"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/sim"
)

// Fig7Config parameterizes the feedback-rate experiment (§5.1, Fig 7):
// high constant feedback wastes ACK energy; low constant feedback reacts
// too slowly to congestion and drops packets in queues; variable-rate
// feedback gets both right.
//
// The experiment runs in the paper's operating regime — per-flow rates
// around one packet per second (the paper's goodputs are 0.1–1.4 kbps) —
// by using a slower TDMA slot, so feedback traffic is a visible share of
// total energy and queues are tight relative to reaction times.
type Fig7Config struct {
	Nodes int
	// Rates are the constant feedback rates swept (paper: ~0.05–0.5/s).
	Rates []float64
	// ShortFlows is the number of short-lived transfers injected, in
	// overlapping pairs so each onset is a sharp congestion event.
	ShortFlows int
	// ShortPackets is each short transfer's size.
	ShortPackets int
	// LongPackets is the long-lived transfer's size.
	LongPackets int
	// SlotMs is the TDMA slot in milliseconds (paper-regime default 100).
	SlotMs float64
	// QueueCap is the per-node MAC queue in frames.
	QueueCap int
	Runs     int
	Seconds  float64
	Seed     int64
}

// Fig7Defaults returns the experiment at the given scale.
func Fig7Defaults(scale float64) Fig7Config {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	runs := int(10 * scale)
	if runs < 3 {
		runs = 3
	}
	return Fig7Config{
		Nodes:        8,
		Rates:        []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5},
		ShortFlows:   4,
		ShortPackets: 80,
		LongPackets:  1500,
		SlotMs:       50,
		QueueCap:     20,
		Runs:         runs,
		Seconds:      1500,
		Seed:         71,
	}
}

// Fig7 reproduces Fig 7: total energy (a) and queue drops (b) as a
// function of the long-lived flow's feedback rate, after the
// variable-feedback reference (feedback 0), the horizontal line of the
// paper's plots.
func Fig7(cfg Fig7Config) Figure {
	return Figure{
		Matrix: campaign.Matrix{
			Name:   "fig7",
			Config: cfg,
			Axes:   []campaign.Axis{{Name: "feedback", Values: campaign.Floats(append([]float64{0}, cfg.Rates...)...)}},
			Runs:   cfg.Runs,
			SeedFn: runSeeds(cfg.Seed, 2711),
		},
		Scenario: func(cell campaign.Cell, seed int64) Scenario {
			return fig7Scenario(cfg, cell.Float("feedback"), seed)
		},
		Sample: func(rec *metrics.RunRecord) campaign.Sample {
			return campaign.Sample{
				obsEnergyJ:      rec.TotalEnergy,
				obsEnergyPerBit: rec.EnergyPerBit(),
				obsQueueDrops:   float64(rec.QueueDrops),
			}
		},
		Tables: func(rep *campaign.Report) []*metrics.Table {
			energyTbl := metrics.NewTable(
				"Fig 7(a): energy vs feedback rate",
				"feedback", "energy(mJ)", "±CI", "uJ/bit", "±CI")
			dropsTbl := metrics.NewTable(
				"Fig 7(b): queue drops vs feedback rate",
				"feedback", "drops", "±CI")
			for _, c := range rep.Cells {
				label := feedbackLabel(c.Cell.Float("feedback"))
				energy, perBit, drops := c.Running(obsEnergyJ), c.Running(obsEnergyPerBit), c.Running(obsQueueDrops)
				energyTbl.AddRow(label, energy.Mean()*1e3, energy.CI95()*1e3,
					perBit.Mean()*1e6, perBit.CI95()*1e6)
				dropsTbl.AddRow(label, drops.Mean(), drops.CI95())
			}
			return []*metrics.Table{energyTbl, dropsTbl}
		},
	}
}

// fig7Scenario is one run: a long-lived transfer whose feedback regime
// is fbRate, against short-lived flows arriving in overlapping pairs.
func fig7Scenario(cfg Fig7Config, fbRate float64, seed int64) Scenario {
	n := cfg.Nodes
	// Only the long-lived flow's feedback regime is varied (the paper
	// varies "the rate of constant-rate feedback" of the flow whose
	// back-off behaviour is under study); the short-lived flows always
	// run default JTP.
	// The long-lived flow is a large fixed transfer spanning most of the
	// run, so the data volume is the same in every cell and the energy
	// difference across cells is the feedback traffic itself.
	// Every flow's rate is capped near the slow MAC's per-node share so
	// the data volume is comparable across feedback regimes and the ACK
	// energy difference is what the experiment measures.
	flows := []FlowSpec{{
		Src: 0, Dst: n - 1, StartAt: 50,
		TotalPackets:         cfg.LongPackets,
		ConstantFeedbackRate: fbRate,
		InitialRate:          1.6,
		MaxRate:              1.6,
	}}
	// Short-lived flows arrive in overlapping pairs spread over the run:
	// each pair's onset is a sharp congestion event the long-lived
	// sender must be told to back off from.
	pairs := (cfg.ShortFlows + 1) / 2
	span := (cfg.Seconds - 400) / float64(pairs)
	for i := 0; i < cfg.ShortFlows; i++ {
		pair := i / 2
		src := 1 + (i % (n - 2))
		dst := n - 1 - (i % 2)
		if dst <= src {
			dst = n - 1
		}
		flows = append(flows, FlowSpec{
			Src: src, Dst: dst,
			StartAt:      200 + float64(pair)*span + float64(i%2)*5,
			TotalPackets: cfg.ShortPackets,
			InitialRate:  1.2,
			MaxRate:      1.6,
		})
	}
	macCfg := mac.Defaults()
	if cfg.SlotMs > 0 {
		macCfg.SlotDuration = sim.DurationOf(cfg.SlotMs / 1e3)
	}
	if cfg.QueueCap > 0 {
		macCfg.QueueCap = cfg.QueueCap
	}
	return Scenario{
		Name:    "fig7",
		Proto:   JTP,
		Topo:    Linear,
		Nodes:   n,
		Seconds: cfg.Seconds,
		Seed:    seed,
		MAC:     &macCfg,
		Flows:   flows,
	}
}
