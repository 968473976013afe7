package experiments

import (
	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/metrics"
)

// Fig9Config parameterizes the linear-topology comparison (§6.1.1):
// two competing flows with endpoints at the two ends of the chain,
// Gilbert-Elliott links (10% bad time, 3 s bad periods), 20 runs of
// 2500 s with flows starting randomly after a 900 s warm-up.
type Fig9Config struct {
	// Sizes are the chain lengths (paper: 2–10).
	Sizes []int
	// Runs is the number of independent seeds per cell (paper: 20).
	Runs int
	// Seconds is the run length (paper: 2500).
	Seconds float64
	// Warmup is when flows may start (paper: 900).
	Warmup float64
	// Protocols compared (paper: jtp, atp, tcp).
	Protocols []Protocol
	// Seed is the base seed; run i uses Seed + i·1009.
	Seed int64
}

// Fig9Defaults returns the paper's parameters, scaled by the given
// factor in (0,1] for quicker runs (1 = full paper scale).
func Fig9Defaults(scale float64) Fig9Config {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	runs := int(20 * scale)
	if runs < 2 {
		runs = 2
	}
	secs := 2500 * scale
	if secs < 400 {
		secs = 400
	}
	warm := 900 * scale
	if warm < 60 {
		warm = 60
	}
	return Fig9Config{
		Sizes:     []int{2, 4, 6, 8, 10},
		Runs:      runs,
		Seconds:   secs,
		Warmup:    warm,
		Protocols: []Protocol{JTP, ATP, TCP},
		Seed:      42,
	}
}

// Fig9 reproduces Fig 9(a) energy/bit and Fig 9(b) goodput for linear
// topologies: two competing long-lived flows spanning the chain in both
// directions, started randomly within 100 s after warm-up. The seed
// schedule Seed + run·1009 is the original serial implementation's.
func Fig9(cfg Fig9Config) Figure {
	return Figure{
		Matrix: campaign.Matrix{
			Name:   "fig9",
			Config: cfg,
			Axes: []campaign.Axis{
				{Name: "proto", Values: protocolValues(cfg.Protocols)},
				{Name: "netSize", Values: campaign.Ints(cfg.Sizes...)},
			},
			Runs:   cfg.Runs,
			SeedFn: runSeeds(cfg.Seed, 1009),
		},
		Scenario: func(cell campaign.Cell, seed int64) Scenario {
			n := cell.Int("netSize")
			jitter1 := float64(seed%97) / 97.0 * 100
			jitter2 := float64(seed%89) / 89.0 * 100
			return Scenario{
				Name:    "fig9",
				Proto:   Protocol(cell.String("proto")),
				Topo:    Linear,
				Nodes:   n,
				Seconds: cfg.Seconds,
				Seed:    seed,
				Flows: []FlowSpec{
					{Src: 0, Dst: n - 1, StartAt: cfg.Warmup + jitter1},
					{Src: n - 1, Dst: 0, StartAt: cfg.Warmup + jitter2},
				},
			}
		},
		Sample: energyGoodputSample,
		Tables: func(rep *campaign.Report) []*metrics.Table {
			return energyGoodputTables(rep, "netSize", "netSize",
				"Fig 9(a): energy per delivered bit, linear topologies (uJ/bit, 95% CI)",
				"Fig 9(b): average flow goodput, linear topologies (kbps, 95% CI)")
		},
	}
}
