package experiments

import (
	"strconv"

	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/core"
	"github.com/javelen/jtp/internal/ijtp"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/packet"
)

// Fig3Config parameterizes the adjustable-reliability experiment (§3):
// one bulk transfer per run over linear chains at loss tolerance 0%
// (jtp0), 10% (jtp10) and 20% (jtp20).
type Fig3Config struct {
	// Sizes are chain lengths (paper: 2–8 for energy, 2–9 for data).
	Sizes []int
	// Tolerances are the reliability levels (paper: 0, 0.10, 0.20).
	Tolerances []float64
	// TransferPackets is the transfer size in packets.
	TransferPackets int
	// Runs per cell.
	Runs int
	// Seconds bounds each run (transfers normally finish much earlier).
	Seconds float64
	// Seed is the base seed.
	Seed int64
}

// Fig3Defaults returns the experiment at the given scale.
func Fig3Defaults(scale float64) Fig3Config {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	runs := int(10 * scale)
	if runs < 2 {
		runs = 2
	}
	pkts := int(400 * scale)
	if pkts < 80 {
		pkts = 80
	}
	return Fig3Config{
		Sizes:           []int{2, 3, 4, 5, 6, 7, 8},
		Tolerances:      []float64{0, 0.10, 0.20},
		TransferPackets: pkts,
		Runs:            runs,
		Seconds:         3000,
		Seed:            31,
	}
}

// Fig3 reproduces Figs 3(a) and 3(b): energy and data delivered for
// transfers of different reliability levels, one bulk transfer per run.
func Fig3(cfg Fig3Config) Figure {
	return Figure{
		Matrix: campaign.Matrix{
			Name: "fig3",
			Axes: []campaign.Axis{
				{Name: "lossTol", Values: campaign.Floats(cfg.Tolerances...)},
				{Name: "netSize", Values: campaign.Ints(cfg.Sizes...)},
			},
			Runs:   cfg.Runs,
			SeedFn: runSeeds(cfg.Seed, 7919),
		},
		Scenario: func(cell campaign.Cell, seed int64) Scenario {
			n := cell.Int("netSize")
			return Scenario{
				Name:    "fig3",
				Proto:   JTP,
				Topo:    Linear,
				Nodes:   n,
				Seconds: cfg.Seconds,
				Seed:    seed,
				Flows: []FlowSpec{{
					Src: 0, Dst: n - 1, StartAt: 50,
					TotalPackets:  cfg.TransferPackets,
					LossTolerance: cell.Float("lossTol"),
				}},
			}
		},
		Sample: func(rec *metrics.RunRecord) campaign.Sample {
			completed := 0.0
			if rec.Flows[0].Completed {
				completed = 1
			}
			return campaign.Sample{
				obsEnergyJ:     rec.TotalEnergy,
				obsDeliveredKB: float64(rec.DeliveredBytes()) / 1e3,
				obsCompleted:   completed,
			}
		},
		Tables: func(rep *campaign.Report) []*metrics.Table {
			payload := core.DefaultPayloadLen
			energyTbl := metrics.NewTable(
				"Fig 3(a): total energy per transfer vs netSize (J)",
				"netSize", "jtp-lt", "energy(J)", "±CI", "completed")
			dataTbl := metrics.NewTable(
				"Fig 3(b): data delivered to application vs netSize (kB)",
				"netSize", "jtp-lt", "delivered(kB)", "required(kB)")
			for _, c := range rep.Cells {
				n, lt := c.Cell.Int("netSize"), c.Cell.Float("lossTol")
				energy, completed := c.Running(obsEnergyJ), c.Running(obsCompleted)
				delivered := c.Running(obsDeliveredKB)
				energyTbl.AddRow(n, lt, energy.Mean(), energy.CI95(),
					strconv.Itoa(int(completed.Sum()))+"/"+strconv.Itoa(cfg.Runs))
				required := float64(cfg.TransferPackets) * (1 - lt) * float64(payload) / 1e3
				dataTbl.AddRow(n, lt, delivered.Mean(), required)
			}
			return []*metrics.Table{energyTbl, dataTbl}
		},
	}
}

// Fig3RtxSample is one observation of the per-packet link-layer attempt
// budget set by iJTP at a mid-path node — exactly what Fig 3(c) plots.
type Fig3RtxSample struct {
	T        float64 // seconds
	Attempts int
	Seq      uint32
}

// Fig3cResult is the Fig 3(c) trace for one reliability level.
type Fig3cResult struct {
	LossTolerance float64
	NodeIndex     int
	Samples       []Fig3RtxSample
}

// Fig3c traces the maximum number of link-layer transmissions iJTP sets
// for each packet at the third node of a 4-node chain, for jtp10 and
// jtp20. (jtp0 is omitted as in the paper: it always gets MAX_ATTEMPTS.)
func Fig3c(transferPackets int, seed int64) []*Fig3cResult {
	var out []*Fig3cResult
	const nodeIdx = 2 // third node on the path (0-based), as in the paper
	for _, lt := range []float64{0.10, 0.20} {
		res := &Fig3cResult{LossTolerance: lt, NodeIndex: nodeIdx}
		must(RunWithHooks(Scenario{
			Name:    "fig3c",
			Proto:   JTP,
			Topo:    Linear,
			Nodes:   4,
			Seconds: 3000,
			Seed:    seed,
			Flows: []FlowSpec{{
				Src: 0, Dst: 3, StartAt: 50,
				TotalPackets:  transferPackets,
				LossTolerance: lt,
			}},
		}, Hooks{
			Plugin: func(id packet.NodeID, pl *ijtp.Plugin) {
				if int(id) != nodeIdx {
					return
				}
				pl.OnSetAttempts = func(p *packet.Packet, attempts int) {
					if p.Type != packet.Data {
						return
					}
					res.Samples = append(res.Samples, Fig3RtxSample{
						T:        float64(p.Seq), // indexed by packet as a proxy for time
						Attempts: attempts,
						Seq:      p.Seq,
					})
				}
			},
		}))
		out = append(out, res)
	}
	return out
}
