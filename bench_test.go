package jtp_test

// Ablation benchmarks for the design choices DESIGN.md §4 calls out, and
// micro-benchmarks for the hot data structures. Each ablation runs every
// arm of one scenario per iteration and reports the paper's metric(s)
// via b.ReportMetric:
//
//	go test -bench=. -benchmem
//
// The figures themselves are tested in internal/experiments; absolute
// values use the simulated JAVeLEN-class radio (see DESIGN.md) and the
// paper-vs-measured comparison lives in EXPERIMENTS.md.

import (
	"testing"

	"github.com/javelen/jtp/internal/cache"
	"github.com/javelen/jtp/internal/core"
	"github.com/javelen/jtp/internal/experiments"
	"github.com/javelen/jtp/internal/flipflop"
	"github.com/javelen/jtp/internal/ijtp"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/sim"
)

// mustRun unwraps experiments.Run for benchmark scenarios, whose
// protocols are compile-time constants and cannot fail lookup.
func mustRun(sc experiments.Scenario) *metrics.RunRecord {
	rec, err := experiments.Run(sc)
	if err != nil {
		panic(err)
	}
	return rec
}

// ---- Ablation benchmarks (DESIGN.md §4) -------------------------------

func ablationScenario(seed int64) experiments.Scenario {
	return experiments.Scenario{
		Name:    "ablation",
		Proto:   experiments.JTP,
		Topo:    experiments.Linear,
		Nodes:   8,
		Seconds: 900,
		Seed:    seed,
		Flows: []FlowSpecAlias{
			{Src: 0, Dst: 7, StartAt: 50},
			{Src: 7, Dst: 0, StartAt: 80},
		},
	}
}

// FlowSpecAlias keeps the ablation helper readable.
type FlowSpecAlias = experiments.FlowSpec

// BenchmarkAblationCache compares energy/bit with caching on vs off on
// the same workload (the §4.1 claim, isolated).
func BenchmarkAblationCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on := ablationScenario(300 + int64(i))
		rec := mustRun(on)
		off := ablationScenario(300 + int64(i))
		off.Proto = experiments.JNC
		recOff := mustRun(off)
		b.ReportMetric(rec.EnergyPerBit()*1e6, "cache-uJ/bit")
		b.ReportMetric(recOff.EnergyPerBit()*1e6, "nocache-uJ/bit")
	}
}

// BenchmarkAblationFlipflop compares the flip-flop monitor against a
// single stable filter (no agile catch-up, no early feedback).
func BenchmarkAblationFlipflop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ff := ablationScenario(400 + int64(i))
		rec := mustRun(ff)
		single := ablationScenario(400 + int64(i))
		single.JTPTune = func(cfg *core.Config) {
			// An enormous outlier run never triggers: the monitor stays
			// on the stable filter and never sends early feedback.
			cfg.RateMonitor = flipflop.Defaults()
			cfg.RateMonitor.OutlierRun = 1 << 20
			cfg.EnergyMonitor = cfg.RateMonitor
		}
		recSingle := mustRun(single)
		b.ReportMetric(rec.MeanGoodputBps()/1e3, "flipflop-kbps")
		b.ReportMetric(recSingle.MeanGoodputBps()/1e3, "stableonly-kbps")
		b.ReportMetric(float64(rec.QueueDrops), "flipflop-qdrops")
		b.ReportMetric(float64(recSingle.QueueDrops), "stableonly-qdrops")
	}
}

// BenchmarkAblationLossTolerance compares Eq (3) tolerance re-encoding
// against static per-hop targets for a jtp20 transfer.
func BenchmarkAblationLossTolerance(b *testing.B) {
	run := func(static bool, seed int64) (energy float64, delivered uint64) {
		sc := experiments.Scenario{
			Name: "ablation-lt", Proto: experiments.JTP, Topo: experiments.Linear,
			Nodes: 6, Seconds: 3000, Seed: seed,
			Flows: []experiments.FlowSpec{{
				Src: 0, Dst: 5, StartAt: 50, TotalPackets: 150, LossTolerance: 0.2,
			}},
		}
		if static {
			sc.IJTPTune = func(cfg *ijtp.Config) { cfg.StaticTolerance = true }
		}
		rec := mustRun(sc)
		return rec.TotalEnergy, rec.Flows[0].UniqueDelivered
	}
	for i := 0; i < b.N; i++ {
		e1, d1 := run(false, 500+int64(i))
		e2, d2 := run(true, 500+int64(i))
		b.ReportMetric(e1, "reencode-J")
		b.ReportMetric(e2, "static-J")
		b.ReportMetric(float64(d1), "reencode-pkts")
		b.ReportMetric(float64(d2), "static-pkts")
	}
}

// BenchmarkAblationCachePolicy compares cache replacement strategies
// (the §4/§8 future-work study) under memory pressure: tiny caches on a
// lossy chain, where the eviction choice decides whether SNACKed packets
// are still around.
func BenchmarkAblationCachePolicy(b *testing.B) {
	policies := []struct {
		p     cache.Policy
		label string
	}{
		{cache.LRU, "lru"},
		{cache.FIFO, "fifo"},
		{cache.Random, "random"},
		{cache.EnergyAware, "energy"},
	}
	for i := 0; i < b.N; i++ {
		for _, pol := range policies {
			sc := experiments.Scenario{
				Name: "ablation-policy", Proto: experiments.JTP, Topo: experiments.Linear,
				Nodes: 8, Seconds: 2500, Seed: 700 + int64(i),
				CacheCapacity: 8,
				Flows: []experiments.FlowSpec{{
					Src: 0, Dst: 7, StartAt: 50, TotalPackets: 200,
				}},
			}
			p := pol.p
			sc.IJTPTune = func(cfg *ijtp.Config) { cfg.CachePolicy = p }
			rec := mustRun(sc)
			b.ReportMetric(float64(rec.Flows[0].SourceRetransmissions), pol.label+"-srcRtx")
			b.ReportMetric(float64(rec.CacheHits), pol.label+"-hits")
		}
	}
}

// BenchmarkAblationTargetStrategy compares §3's uniform per-hop success
// targets against the load-aware alternative the paper suggests.
func BenchmarkAblationTargetStrategy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, strat := range []struct {
			s     ijtp.TargetStrategy
			label string
		}{
			{ijtp.UniformTarget, "uniform"},
			{ijtp.LoadAwareTarget, "loadaware"},
		} {
			sc := ablationScenario(800 + int64(i))
			sc.Flows = append(sc.Flows, experiments.FlowSpec{
				Src: 2, Dst: 5, StartAt: 120, LossTolerance: 0.1,
			})
			s := strat.s
			sc.IJTPTune = func(cfg *ijtp.Config) { cfg.Strategy = s }
			rec := mustRun(sc)
			b.ReportMetric(rec.EnergyPerBit()*1e6, strat.label+"-uJ/bit")
			b.ReportMetric(rec.MeanGoodputBps()/1e3, strat.label+"-kbps")
		}
	}
}

// BenchmarkAblationGains sweeps the PI²/MD controller gains.
func BenchmarkAblationGains(b *testing.B) {
	gains := []struct {
		ki, kd float64
		label  string
	}{
		{0.1, 0.85, "ki0.1-kbps"},
		{0.3, 0.85, "ki0.3-kbps"},
		{0.8, 0.85, "ki0.8-kbps"},
		{0.3, 0.5, "kd0.5-kbps"},
	}
	for i := 0; i < b.N; i++ {
		for _, g := range gains {
			sc := ablationScenario(600 + int64(i))
			ki, kd := g.ki, g.kd
			sc.JTPTune = func(cfg *core.Config) {
				cfg.KI, cfg.KD = ki, kd
			}
			rec := mustRun(sc)
			b.ReportMetric(rec.MeanGoodputBps()/1e3, g.label)
		}
	}
}

// ---- Micro-benchmarks --------------------------------------------------

// BenchmarkFlipflopObserve measures the path-monitor filter per sample.
func BenchmarkFlipflopObserve(b *testing.B) {
	f := flipflop.New(flipflop.Defaults())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Observe(10 + float64(i%7))
	}
}

// BenchmarkEngineStopChurn measures the cancel/re-arm path every pacing
// timer exercises per packet (eager removal, 0 allocs/op).
func BenchmarkEngineStopChurn(b *testing.B) {
	eng := sim.NewEngine(1)
	fn := func() {}
	ref := eng.Schedule(sim.Second, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref.Stop()
		ref = eng.Schedule(sim.Second, fn)
	}
}

// BenchmarkSimulatedSecond measures how fast the full stack simulates
// one virtual second of a busy 8-node chain (events, MAC, iJTP, caches).
func BenchmarkSimulatedSecond(b *testing.B) {
	rec := experiments.Scenario{
		Name: "bench-stack", Proto: experiments.JTP, Topo: experiments.Linear,
		Nodes: 8, Seconds: float64(b.N), Seed: 1,
		Flows: []experiments.FlowSpec{
			{Src: 0, Dst: 7, StartAt: 1},
			{Src: 7, Dst: 0, StartAt: 2},
		},
	}
	b.ResetTimer()
	out := mustRun(rec)
	b.StopTimer()
	if out.TotalEnergy <= 0 && b.N > 30 {
		b.Fatal("stack benchmark did nothing")
	}
}
