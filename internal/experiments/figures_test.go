package experiments

import (
	"context"
	"testing"

	"github.com/javelen/jtp/internal/campaign"
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

func TestFig3cAttemptControl(t *testing.T) {
	results := Fig3c(150, 33)
	if len(results) != 2 {
		t.Fatalf("want 2 traces, got %d", len(results))
	}
	for _, res := range results {
		if len(res.Samples) == 0 {
			t.Fatalf("lt=%.2f: no attempt samples at node %d", res.LossTolerance, res.NodeIndex)
		}
		min, max := 99, 0
		for _, s := range res.Samples {
			if s.Attempts < min {
				min = s.Attempts
			}
			if s.Attempts > max {
				max = s.Attempts
			}
		}
		t.Logf("lt=%.2f: %d samples, attempts range [%d,%d]", res.LossTolerance, len(res.Samples), min, max)
		if min < 1 || max > 5 {
			t.Errorf("lt=%.2f: attempts out of [1,MAX_ATTEMPTS]: [%d,%d]", res.LossTolerance, min, max)
		}
		if max == min {
			t.Errorf("lt=%.2f: attempts never varied (link-quality adaptation not visible)", res.LossTolerance)
		}
	}
	// Higher tolerance must not request more effort on average.
	avg := func(r *Fig3cResult) float64 {
		sum := 0.0
		for _, s := range r.Samples {
			sum += float64(s.Attempts)
		}
		return sum / float64(len(r.Samples))
	}
	if a10, a20 := avg(results[0]), avg(results[1]); a10 < a20 {
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

func TestFig5BackoffShape(t *testing.T) {
	cfg := Fig5Config{Nodes: 6, Seconds: 1200, BinSeconds: 20, Seed: 51}
	results := Fig5(cfg)
	t.Logf("\n%s", Fig5Summary(results))
	var with, without *Fig5Result
	for _, r := range results {
		if r.Backoff {
			with = r
		} else {
			without = r
		}
	}
	if with == nil || without == nil {
		t.Fatal("missing backoff variants")
	}
	// Without back-off the reliable flow (flow 2) grabs a larger share
	// relative to the UDP-like flow than with back-off.
	ratioWith := with.MeanRate[1] / with.MeanRate[0]
	ratioWithout := without.MeanRate[1] / without.MeanRate[0]
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

func TestFig8RateAdaptationShape(t *testing.T) {
	cfg := Fig8Config{
		Nodes:      6,
		Flow2Start: 400,
		Flow2End:   650,
		Seconds:    900,
		BinSeconds: 10,
		Seed:       81,
	}
	res := Fig8(cfg)
	t.Logf("\n%s", Fig8Summary(res, cfg))
	before := res.Throughput[0].Between(200, cfg.Flow2Start).Mean()
	during := res.Throughput[0].Between(cfg.Flow2Start+50, cfg.Flow2End).Mean()
	after := res.Throughput[0].Between(cfg.Flow2End+100, cfg.Seconds).Mean()
	if during >= before {
		t.Errorf("flow1 did not back off while flow2 active: before=%.2f during=%.2f", before, during)
	}
	if after <= during {
		t.Errorf("flow1 did not recover after flow2 ended: during=%.2f after=%.2f", during, after)
	}
	if res.Reported.Len() == 0 || res.Mean.Len() == 0 {
		t.Error("monitor series empty")
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
