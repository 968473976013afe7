package experiments

import (
	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/channel"
	"github.com/javelen/jtp/internal/metrics"
)

// Table2Config parameterizes the testbed scenario (§6.2): 14 nodes,
// 30-minute experiments, flows generated at each node with ~400 s mean
// interarrival and ~100 KB mean transfer size, over stable indoor links
// (no controlled pathloss).
//
// Substitution note: the physical JAVeLEN radios and RTLinux MAC are
// unavailable; the scenario runs the same protocol code on the simulated
// substrate with the Testbed channel (stable, low loss), which is
// exactly the "shared code" arrangement the paper describes.
type Table2Config struct {
	Nodes          int
	Seconds        float64
	MeanInterarriv float64 // seconds between flow arrivals per node
	TransferKB     int
	Runs           int
	Protocols      []Protocol
	Seed           int64
}

// Table2Defaults returns the §6.2 parameters at the given scale.
func Table2Defaults(scale float64) Table2Config {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	runs := int(5 * scale)
	if runs < 2 {
		runs = 2
	}
	secs := 1800 * scale
	if secs < 400 {
		secs = 400
	}
	return Table2Config{
		Nodes:          14,
		Seconds:        secs,
		MeanInterarriv: 400,
		TransferKB:     100,
		Runs:           runs,
		Protocols:      []Protocol{JTP, ATP, TCP},
		Seed:           201,
	}
}

// Table2 reproduces Table 2: energy per delivered bit and average
// goodput on the (simulated) JAVeLEN testbed, in paper-style rows
// (mJ/bit is the paper's unit; our radio model is far cheaper per bit,
// so the relative column is the comparison that matters).
func Table2(cfg Table2Config) Figure {
	return Figure{
		Matrix: campaign.Matrix{
			Name:   "table2",
			Config: cfg,
			Axes:   []campaign.Axis{{Name: "proto", Values: protocolValues(cfg.Protocols)}},
			Runs:   cfg.Runs,
			SeedFn: runSeeds(cfg.Seed, 9677),
		},
		Scenario: func(cell campaign.Cell, seed int64) Scenario {
			return table2Scenario(Protocol(cell.String("proto")), cfg, seed)
		},
		Sample: energyGoodputSample,
		Tables: func(rep *campaign.Report) []*metrics.Table {
			t := metrics.NewTable(
				"Table 2: JAVeLEN system results (simulated testbed)",
				"proto", "energy/bit(uJ)", "goodput(kbps)", "vs jtp energy")
			var jtpE float64
			for _, c := range rep.Cells {
				if Protocol(c.Cell.String("proto")) == JTP {
					e := c.Running(obsEnergyPerBit)
					jtpE = e.Mean()
				}
			}
			for _, c := range rep.Cells {
				e, g := c.Running(obsEnergyPerBit), c.Running(obsGoodputBps)
				rel := ""
				if jtpE > 0 {
					rel = fmtRatio(e.Mean() / jtpE)
				}
				t.AddRow(c.Cell.String("proto"), e.Mean()*1e6, g.Mean()/1e3, rel)
			}
			return []*metrics.Table{t}
		},
	}
}

// table2Scenario is one testbed run.
func table2Scenario(proto Protocol, cfg Table2Config, seed int64) Scenario {
	ch := channel.Testbed()
	// Poisson-ish flow arrivals: with N nodes and mean interarrival T per
	// node, the system sees about N·seconds/T transfers; spread their
	// start times deterministically from the seed.
	nFlows := int(float64(cfg.Nodes) * cfg.Seconds / cfg.MeanInterarriv)
	if nFlows < 1 {
		nFlows = 1
	}
	pktBytes := 800
	pkts := cfg.TransferKB * 1000 / pktBytes
	flows := make([]FlowSpec, nFlows)
	span := (cfg.Seconds - 100) / float64(nFlows)
	for i := range flows {
		flows[i] = FlowSpec{
			Src: -1, Dst: -1,
			StartAt:      50 + float64(i)*span,
			TotalPackets: pkts,
		}
	}
	return Scenario{
		Name:    "table2",
		Proto:   proto,
		Topo:    Random,
		Nodes:   cfg.Nodes,
		Seconds: cfg.Seconds,
		Seed:    seed,
		Channel: &ch,
		Flows:   flows,
	}
}

// Table1 is Table 1, the default parameter values, as a one-cell
// Figure. Its one run is the cheapest valid scenario, two idle nodes
// for a second; the table does not read it.
func Table1() Figure {
	return Figure{
		Matrix: campaign.Matrix{Name: "table1"},
		Scenario: func(_ campaign.Cell, seed int64) Scenario {
			return Scenario{Name: "table1", Proto: JTP, Nodes: 2, Seconds: 1, Seed: seed}
		},
		Sample: func(*metrics.RunRecord) campaign.Sample { return campaign.Sample{} },
		Tables: func(*campaign.Report) []*metrics.Table { return []*metrics.Table{Defaults()} },
	}
}

// Defaults renders Table 1: the default parameter values.
func Defaults() *metrics.Table {
	t := metrics.NewTable("Table 1: parameters' default value", "parameter", "value")
	t.AddRow("MAX_ATTEMPTS", 5)
	t.AddRow("JTP Pkt Size", "800 bytes")
	t.AddRow("Cache Size", "1000 pkts")
	t.AddRow("T_LowerBound", "10 s")
	t.AddRow("TDMA slot", "25 ms")
	t.AddRow("Radio data rate", "1 Mb/s")
	t.AddRow("Tx power / fixed", "80 mW / 0.4 mJ")
	t.AddRow("Rx power / fixed", "50 mW / 0.2 mJ")
	t.AddRow("Link bad-state share", "10% (mean 3 s)")
	t.AddRow("Loss good/bad state", "5% / 75%")
	return t
}
