package experiments

import (
	"context"
	"testing"

	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/ijtp"
)

// The tests in this file run scaled-down versions of every experiment and
// assert the paper's qualitative shapes — the reproduction criteria of
// DESIGN.md §3 — rather than absolute numbers.

// workers is the Options of a plain campaign on n workers (0 = all
// CPUs).
func workers(n int) Options { return Options{Options: campaign.Options{Workers: n}} }

// figureReport executes a figure campaign under opt, failing the test on
// any error.
func figureReport(t *testing.T, f Figure, opt Options) *campaign.Report {
	t.Helper()
	rep, err := f.Report(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// findCell returns the report's cell whose axes take the given values,
// passed as alternating axis names and values.
func findCell(t *testing.T, rep *campaign.Report, axisValues ...any) *campaign.CellResult {
	t.Helper()
	for _, c := range rep.Cells {
		match := true
		for i := 0; i < len(axisValues); i += 2 {
			if c.Cell.String(axisValues[i].(string)) != campaign.FormatValue(axisValues[i+1]) {
				match = false
			}
		}
		if match {
			return c
		}
	}
	t.Fatalf("no cell %v in campaign %s", axisValues, rep.Name)
	return nil
}

// mean is the mean of one observable over a cell's runs.
func mean(c *campaign.CellResult, observable string) float64 {
	r := c.Running(observable)
	return r.Mean()
}

func TestFig3ReliabilityShape(t *testing.T) {
	cfg := fig3GoldenCfg()
	fig := Fig3(cfg)
	rep := figureReport(t, fig, Options{})
	t.Logf("\n%s", tablesCSV(fig.Tables(rep)...))

	for _, n := range cfg.Sizes {
		full := findCell(t, rep, "lossTol", 0.0, "netSize", n)
		loose := findCell(t, rep, "lossTol", 0.20, "netSize", n)
		if mean(full, obsEnergyJ) <= mean(loose, obsEnergyJ) {
			t.Errorf("n=%d: jtp0 energy %.4f <= jtp20 %.4f (higher reliability must cost more)",
				n, mean(full, obsEnergyJ), mean(loose, obsEnergyJ))
		}
		// Application requirement: delivered >= (1-lt)*total payload.
		reqKB := float64(cfg.TransferPackets) * 0.8 * 772 / 1e3
		if mean(loose, obsDeliveredKB) < reqKB {
			t.Errorf("n=%d: jtp20 delivered %.1fkB < required %.1fkB",
				n, mean(loose, obsDeliveredKB), reqKB)
		}
		if completed := full.Running(obsCompleted); int(completed.Sum()) != cfg.Runs {
			t.Errorf("n=%d: jtp0 completed %v/%d transfers", n, completed.Sum(), cfg.Runs)
		}
	}
}

// fig3cTestCfg is the Fig 3(c) configuration of the shape and
// equivalence tests.
func fig3cTestCfg() Fig3cConfig { return Fig3cConfig{TransferPackets: 150, Seed: 33} }

func TestFig3cAttemptControl(t *testing.T) {
	fig := Fig3c(fig3cTestCfg())
	rep := figureReport(t, fig, Options{})
	t.Logf("\n%s", tablesCSV(fig.Tables(rep)...))
	// avg is the mean attempt budget granted at the watched node.
	avg := make(map[float64]float64)
	for _, c := range rep.Cells {
		lt := c.Cell.Float("lossTol")
		var levels, pkts, sum float64
		for m := 1; m < len(ijtp.Counters{}.Granted); m++ {
			r := c.Running(attemptsObs(m))
			if n := r.Sum(); n > 0 {
				if m > 5 {
					t.Errorf("lt=%.2f: %v packets granted %d attempts, beyond MAX_ATTEMPTS", lt, n, m)
				}
				levels++
				pkts += n
				sum += n * float64(m)
			}
		}
		if pkts == 0 {
			t.Fatalf("lt=%.2f: no attempt budgets granted at node %d", lt, fig3cNode)
		}
		if levels < 2 {
			t.Errorf("lt=%.2f: attempts never varied (link-quality adaptation not visible)", lt)
		}
		avg[lt] = sum / pkts
	}
	// Higher tolerance must not request more effort on average.
	if a10, a20 := avg[0.10], avg[0.20]; a10 < a20 {
		t.Errorf("jtp10 avg attempts %.2f < jtp20 %.2f (lower tolerance should work at least as hard)", a10, a20)
	}
}

func TestFig4CachingShape(t *testing.T) {
	fig := Fig4(fig4GoldenCfgs()[0])
	rep := figureReport(t, fig, Options{})
	t.Logf("\n%s", tablesCSV(fig.Tables(rep)...))

	energy := func(proto Protocol, n int) float64 {
		return mean(findCell(t, rep, "proto", string(proto), "netSize", n), obsEnergyPerBit)
	}
	// Caching must not hurt, and must help on long paths.
	jtp8, jnc8 := energy(JTP, 8), energy(JNC, 8)
	if jnc8 <= jtp8 {
		t.Errorf("n=8: jnc e/bit %.3g <= jtp %.3g (caching should save energy)", jnc8, jtp8)
	}
	// The caching gain should grow with path length (§4.1).
	r3 := energy(JNC, 3) / energy(JTP, 3)
	r8 := jnc8 / jtp8
	if r8 < r3 {
		t.Errorf("jnc/jtp ratio shrank with path length: %.3f@3 -> %.3f@8", r3, r8)
	}
}

// fig5TestCfg is the Fig 5 configuration of the shape and equivalence
// tests.
func fig5TestCfg() Fig5Config { return Fig5Config{Nodes: 6, Seconds: 1200, BinSeconds: 20, Seed: 51} }

func TestFig5BackoffShape(t *testing.T) {
	fig := Fig5(fig5TestCfg())
	rep := figureReport(t, fig, Options{})
	t.Logf("\n%s", tablesCSV(fig.Tables(rep)...))
	ratio := func(backoff bool) float64 {
		c := findCell(t, rep, "backoff", backoff)
		return mean(c, obsFlow2PPS) / mean(c, obsFlow1PPS)
	}
	// Without back-off the reliable flow (flow 2) grabs a larger share
	// relative to the UDP-like flow than with back-off.
	ratioWith, ratioWithout := ratio(true), ratio(false)
	t.Logf("flow2/flow1 with backoff %.3f, without %.3f", ratioWith, ratioWithout)
	if ratioWithout <= ratioWith {
		t.Errorf("backoff had no fairness effect: with=%.3f without=%.3f", ratioWith, ratioWithout)
	}
}

func TestFig6CacheSizeShape(t *testing.T) {
	fig := Fig6(fig6GoldenCfg())
	rep := figureReport(t, fig, Options{})
	t.Logf("\n%s", tablesCSV(fig.Tables(rep)...))
	rtx := func(cs int) float64 {
		return mean(findCell(t, rep, "feedback", 0.0, "cacheSize", cs), obsSourceRtx)
	}
	if small, large := rtx(1), rtx(64); small <= large {
		t.Errorf("source rtx did not drop with cache size: cache1=%.1f cache64=%.1f", small, large)
	}
}

func TestFig7FeedbackShape(t *testing.T) {
	fig := Fig7(fig7GoldenCfg())
	rep := figureReport(t, fig, Options{})
	t.Logf("\n%s", tablesCSV(fig.Tables(rep)...))
	variable := findCell(t, rep, "feedback", 0.0)
	low := findCell(t, rep, "feedback", 0.05)
	high := findCell(t, rep, "feedback", 0.5)
	// Frequent constant feedback wastes energy per delivered bit.
	if mean(high, obsEnergyPerBit) <= mean(low, obsEnergyPerBit) {
		t.Errorf("energy/bit did not grow with feedback rate: 0.5/s=%.3g <= 0.05/s=%.3g",
			mean(high, obsEnergyPerBit), mean(low, obsEnergyPerBit))
	}
	// Variable feedback must stay near the cheap end on energy...
	if mean(variable, obsEnergyPerBit) >= mean(high, obsEnergyPerBit) {
		t.Errorf("variable e/bit %.3g >= 0.5/s %.3g",
			mean(variable, obsEnergyPerBit), mean(high, obsEnergyPerBit))
	}
	// ...without the slow-reaction drop penalty of the lowest constant
	// rate (allowing noise headroom).
	if mean(variable, obsQueueDrops) > mean(low, obsQueueDrops)*1.5 {
		t.Errorf("variable drops %.1f much worse than 0.05/s %.1f",
			mean(variable, obsQueueDrops), mean(low, obsQueueDrops))
	}
}

// fig8TestCfg is the Fig 8 configuration of the shape and equivalence
// tests: flow 2 lives from 400 to 650 s of a 900 s run.
func fig8TestCfg() Fig8Config {
	return Fig8Config{Nodes: 6, Flow2Start: 400, Flow2End: 650, Seconds: 900, BinSeconds: 10, Seed: 81}
}

func TestFig8RateAdaptationShape(t *testing.T) {
	fig := Fig8(fig8TestCfg())
	rep := figureReport(t, fig, Options{})
	t.Logf("\n%s", tablesCSV(fig.Tables(rep)...))
	c := rep.Cells[0]
	before, during, after := mean(c, obsFlow1PPS+"_before"), mean(c, obsFlow1PPS+"_during"), mean(c, obsFlow1PPS+"_after")
	if during >= before {
		t.Errorf("flow1 did not back off while flow2 active: before=%.3f during=%.3f", before, during)
	}
	if after <= during {
		t.Errorf("flow1 did not recover after flow2 ended: during=%.3f after=%.3f", during, after)
	}
	if mean(c, "shifts_before")+mean(c, "shifts_during")+mean(c, "shifts_after") == 0 {
		t.Error("the rate monitor never shifted")
	}
}

func TestFig10RandomSmoke(t *testing.T) {
	cfg := Fig10Config{
		Sizes:     []int{10},
		Flows:     3,
		Runs:      2,
		Seconds:   500,
		Warmup:    60,
		Protocols: []Protocol{JTP, TCP},
		Seed:      101,
	}
	fig := Fig10(cfg)
	rep := figureReport(t, fig, Options{})
	t.Logf("\n%s", tablesCSV(fig.Tables(rep)...))
	for _, c := range rep.Cells {
		if mean(c, obsGoodputBps) <= 0 {
			t.Errorf("%s: zero goodput", c.Cell.Key())
		}
	}
}

func TestFig11MobilitySmoke(t *testing.T) {
	cfg := Fig11Config{
		Nodes:     15,
		Speeds:    []float64{1},
		Flows:     3,
		Runs:      2,
		Seconds:   500,
		Warmup:    60,
		Protocols: []Protocol{JTP},
		Seed:      111,
	}
	fig := Fig11(cfg)
	rep := figureReport(t, fig, Options{})
	t.Logf("\n%s", tablesCSV(fig.Tables(rep)...))
	for _, c := range rep.Cells {
		if mean(c, obsGoodputBps) <= 0 {
			t.Errorf("%s: zero goodput under mobility", c.Cell.Key())
		}
	}
}

func TestTable2Smoke(t *testing.T) {
	fig := Table2(table2GoldenCfg())
	rep := figureReport(t, fig, Options{})
	t.Logf("\n%s", tablesCSV(fig.Tables(rep)...))
	for _, c := range rep.Cells {
		if mean(c, obsGoodputBps) <= 0 {
			t.Errorf("%s: zero goodput on testbed scenario", c.Cell.Key())
		}
	}
	jtpE := mean(findCell(t, rep, "proto", string(JTP)), obsEnergyPerBit)
	tcpE := mean(findCell(t, rep, "proto", string(TCP)), obsEnergyPerBit)
	if jtpE >= tcpE {
		t.Errorf("testbed: jtp e/bit %.3g >= tcp %.3g", jtpE, tcpE)
	}
}
