package experiments

import (
	"fmt"
	"slices"
	"strconv"

	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/metrics"
)

// Fig4Config parameterizes the caching-gain comparison (§4.1).
type Fig4Config struct {
	// Sizes are chain lengths (paper: 3–9).
	Sizes []int
	// TransferPackets is the fixed transfer size per run.
	TransferPackets int
	// Runs per cell.
	Runs int
	// Seconds bounds each run.
	Seconds float64
	// Seed is the base seed.
	Seed int64
	// PerNodeSize is the chain length for the per-node energy breakdown
	// of Fig 4(b) (paper: 7).
	PerNodeSize int
}

// Fig4Defaults returns the experiment at the given scale.
func Fig4Defaults(scale float64) Fig4Config {
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
	return Fig4Config{
		Sizes:           []int{3, 4, 5, 6, 7, 8, 9},
		TransferPackets: pkts,
		Runs:            runs,
		Seconds:         4000,
		Seed:            41,
		PerNodeSize:     7,
	}
}

// Fig4 reproduces Fig 4: (a) energy per delivered bit for JTP with and
// without in-network caching over linear chains, and (b) per-node energy
// on the PerNodeSize chain, where caching should spread retransmission
// effort more evenly over mid-path nodes ("23% ... more fair allocation
// to midpath nodes"). Panel (b) reads the PerNodeSize cells of the same
// campaign; that size joins the sweep only when Sizes lacks it, and only
// panel (b) shows it then.
func Fig4(cfg Fig4Config) Figure {
	perNode := cfg.PerNodeSize
	if perNode <= 0 {
		perNode = 7
	}
	sizes := cfg.Sizes
	if !slices.Contains(sizes, perNode) {
		sizes = append(slices.Clip(sizes), perNode)
	}
	return Figure{
		Matrix: campaign.Matrix{
			Name:   "fig4",
			Config: cfg,
			Axes: []campaign.Axis{
				{Name: "proto", Values: protocolValues([]Protocol{JTP, JNC})},
				{Name: "netSize", Values: campaign.Ints(sizes...)},
			},
			Runs:   cfg.Runs,
			SeedFn: runSeeds(cfg.Seed, 6143),
		},
		Scenario: func(cell campaign.Cell, seed int64) Scenario {
			n := cell.Int("netSize")
			return Scenario{
				Name:    "fig4",
				Proto:   Protocol(cell.String("proto")),
				Topo:    Linear,
				Nodes:   n,
				Seconds: cfg.Seconds,
				Seed:    seed,
				Flows: []FlowSpec{{
					Src: 0, Dst: n - 1, StartAt: 50,
					TotalPackets: cfg.TransferPackets,
				}},
			}
		},
		Sample: func(rec *metrics.RunRecord) campaign.Sample {
			s := campaign.Sample{obsEnergyPerBit: rec.EnergyPerBit()}
			if len(rec.PerNodeEnergy) == perNode {
				for i, e := range rec.PerNodeEnergy {
					s[nodeEnergyObs(i)] = e
				}
			}
			return s
		},
		Tables: func(rep *campaign.Report) []*metrics.Table {
			a := metrics.NewTable(
				"Fig 4(a): energy per delivered bit, JTP vs JNC (uJ/bit)",
				"netSize", "proto", "uJ/bit", "±CI", "jnc/jtp")
			jtpMean := map[int]float64{}
			perNodeCells := map[Protocol]*campaign.CellResult{}
			for _, c := range rep.Cells {
				n, proto := c.Cell.Int("netSize"), Protocol(c.Cell.String("proto"))
				if n == perNode {
					perNodeCells[proto] = c
				}
				if !slices.Contains(cfg.Sizes, n) {
					continue
				}
				e := c.Running(obsEnergyPerBit)
				ratio := ""
				if proto == JTP {
					jtpMean[n] = e.Mean()
				} else if jtp := jtpMean[n]; jtp > 0 {
					ratio = fmtRatio(e.Mean() / jtp)
				}
				a.AddRow(n, string(proto), e.Mean()*1e6, e.CI95()*1e6, ratio)
			}
			b := metrics.NewTable(
				"Fig 4(b): per-node energy, linear chain (mJ)",
				"node", "jtp(mJ)", "jnc(mJ)")
			for i := 0; i < perNode; i++ {
				jtp, jnc := perNodeCells[JTP].Running(nodeEnergyObs(i)), perNodeCells[JNC].Running(nodeEnergyObs(i))
				b.AddRow(i+1, jtp.Mean()*1e3, jnc.Mean()*1e3)
			}
			return []*metrics.Table{a, b}
		},
	}
}

// nodeEnergyObs names node i's energy observable in Fig 4(b) runs.
func nodeEnergyObs(i int) string { return "node" + strconv.Itoa(i+1) + "_energy_J" }

func fmtRatio(r float64) string { return fmt.Sprintf("%.2fx", r) }
