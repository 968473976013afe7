package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/core"
	"github.com/javelen/jtp/internal/metrics"
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
			Name:   "fig3",
			Config: cfg,
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

// Fig3cConfig parameterizes the attempt-budget trace of Fig 3(c): one
// bulk transfer per loss tolerance over a 4-node chain.
type Fig3cConfig struct {
	// TransferPackets is the transfer size in packets.
	TransferPackets int
	// Seed is the seed of every run.
	Seed int64
}

// Fig3cDefaults returns the experiment at the given scale.
func Fig3cDefaults(scale float64) Fig3cConfig {
	pkts := int(300 * scale)
	if pkts < 100 {
		pkts = 100
	}
	return Fig3cConfig{TransferPackets: pkts, Seed: 33}
}

// fig3cNode is the node Fig 3(c) watches: the third on the path, as in
// the paper.
const fig3cNode = 2

// attemptsObs names the observable counting the DATA packets granted m
// attempts at the watched node.
func attemptsObs(m int) string { return "attempts_" + strconv.Itoa(m) }

// Fig3c reproduces Fig 3(c): the number of link-layer transmissions
// iJTP allows each packet at the third node of a 4-node chain, for jtp10
// and jtp20, as a histogram over the transfer. (jtp0 is omitted as in
// the paper: it always gets MAX_ATTEMPTS.)
func Fig3c(cfg Fig3cConfig) Figure {
	return Figure{
		Matrix: campaign.Matrix{
			Name:   "fig3c",
			Config: cfg,
			Axes:   []campaign.Axis{{Name: "lossTol", Values: campaign.Floats(0.10, 0.20)}},
			SeedFn: runSeeds(cfg.Seed, 0),
		},
		Scenario: func(cell campaign.Cell, seed int64) Scenario {
			return Scenario{
				Name:    "fig3c",
				Proto:   JTP,
				Topo:    Linear,
				Nodes:   4,
				Seconds: 3000,
				Seed:    seed,
				Flows: []FlowSpec{{
					Src: 0, Dst: 3, StartAt: 50,
					TotalPackets:  cfg.TransferPackets,
					LossTolerance: cell.Float("lossTol"),
				}},
			}
		},
		Sample: func(rec *metrics.RunRecord) campaign.Sample {
			s := campaign.Sample{}
			for m, n := range rec.AttemptBudgets[fig3cNode] {
				if m > 0 {
					s[attemptsObs(m)] = float64(n)
				}
			}
			return s
		},
		Tables: func(rep *campaign.Report) []*metrics.Table {
			var out []*metrics.Table
			for _, c := range rep.Cells {
				t := metrics.NewTable(
					fmt.Sprintf("Fig 3(c): max link-layer transmissions per packet, node %d, jtp%d",
						fig3cNode+1, int(c.Cell.Float("lossTol")*100)),
					"attempts", "bar", "pkts")
				counts := make([]int, len(c.Observables())+1)
				total := 0
				for m := 1; m < len(counts); m++ {
					r := c.Running(attemptsObs(m))
					counts[m] = int(r.Sum())
					total += counts[m]
				}
				for m, n := range counts {
					if n > 0 {
						t.AddRow(m, bar(n, total), n)
					}
				}
				out = append(out, t)
			}
			return out
		},
	}
}

// bar draws n of total as a row of up to 50 '#', at least one when n > 0.
func bar(n, total int) string {
	w := n * 50 / total
	if w == 0 && n > 0 {
		w = 1
	}
	return strings.Repeat("#", w)
}
