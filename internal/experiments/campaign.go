package experiments

import (
	"context"

	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/metrics"
)

// Observable names shared by the figure campaigns and batch mode.
const (
	obsEnergyPerBit   = "energy_per_bit"    // joules per delivered bit
	obsGoodputBps     = "goodput_bps"       // mean per-flow goodput, bits/s
	obsSourceRtxPerKB = "source_rtx_per_kB" // end-to-end rtx per delivered kB
	obsCacheHitsPerKB = "cache_hits_per_kB" // cache-served rtx per delivered kB
	obsDeliveredKB    = "delivered_kB"      // unique payload delivered
	obsSourceRtx      = "source_rtx"        // end-to-end retransmissions
	obsCacheHits      = "cache_hits"        // cache-served retransmissions
	obsQueueDrops     = "queue_drops"       // MAC queue overflows
	obsRetryDrops     = "retry_drops"       // link-layer retry exhaustion
	obsBudgetDead     = "budget_dead_nodes" // nodes whose energy budget ran out
	obsEnergyJ        = "energy_J"          // total system energy
	obsCompleted      = "completed"         // 1 when the run's transfer finished
)

// Options configures one campaign execution: the engine's options plus
// run telemetry. Every campaign in this package takes its options as an
// argument, so campaigns with different options can share a process.
type Options struct {
	campaign.Options
	// Telemetry collects every run's telemetry (Scenario.Telemetry); each
	// run's map rides its Sample under campaign.TelemetryPrefix and folds
	// into the report's Telemetry aggregates. The observable aggregates —
	// and therefore tables, CSVs and goldens — are byte-identical either
	// way.
	Telemetry bool
}

// Figure is a paper figure declared as a campaign: the sweep, the
// scenario each run simulates, the observables each run reports and the
// projection of the aggregate report onto the paper's tables.
type Figure struct {
	Matrix   campaign.Matrix
	Scenario func(cell campaign.Cell, seed int64) Scenario
	Sample   func(rec *metrics.RunRecord) campaign.Sample
	Tables   func(rep *campaign.Report) []*metrics.Table
}

// Report executes the figure's campaign under opt. Figure scenarios are
// valid by construction, so any failed run is returned as an error. On
// cancellation the partial report is returned with ctx's error.
func (f Figure) Report(ctx context.Context, opt Options) (*campaign.Report, error) {
	rep, err := execute(ctx, f.Matrix, opt, func(cell campaign.Cell, seed int64) (Scenario, error) {
		return f.Scenario(cell, seed), nil
	}, f.Sample)
	if err != nil {
		return rep, err
	}
	return rep, rep.Err()
}

// execute is the one run path of every campaign in this package: each run
// builds its scenario, simulates it and reports its sample.
func execute(ctx context.Context, m campaign.Matrix, opt Options,
	scenario func(campaign.Cell, int64) (Scenario, error),
	sample func(*metrics.RunRecord) campaign.Sample) (*campaign.Report, error) {
	return campaign.Execute(ctx, m, opt.Options, func(ctx context.Context, spec campaign.RunSpec) (campaign.Sample, error) {
		// A run admitted after cancellation bails before simulating: it is
		// classified interrupted (rerun on resume), never failed.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sc, err := scenario(spec.Cell, spec.Seed)
		if err != nil {
			return nil, err
		}
		sc.Telemetry = opt.Telemetry
		rec, err := Run(sc)
		if err != nil {
			return nil, err
		}
		return telemetrySample(sample(rec), rec), nil
	})
}

// telemetrySample merges a run's telemetry snapshot into its campaign
// sample under campaign.TelemetryPrefix; with telemetry off (rec.Telemetry
// nil) it is an identity.
func telemetrySample(s campaign.Sample, rec *metrics.RunRecord) campaign.Sample {
	for k, v := range rec.Telemetry {
		s[campaign.TelemetryPrefix+k] = float64(v)
	}
	return s
}

// runSeeds is the seed schedule the figures kept from their serial
// loops: run r of every cell uses base + r·stride, so all cells of one
// run index see the same seed.
func runSeeds(base, stride int64) campaign.SeedFunc {
	return func(_ campaign.Cell, _, run int) int64 { return base + int64(run)*stride }
}

// protocolValues converts a protocol list into campaign axis values.
func protocolValues(ps []Protocol) []any {
	out := make([]any, len(ps))
	for i, p := range ps {
		out[i] = string(p)
	}
	return out
}

// energyGoodputSample reports the paper's two headline observables.
func energyGoodputSample(rec *metrics.RunRecord) campaign.Sample {
	return campaign.Sample{
		obsEnergyPerBit: rec.EnergyPerBit(),
		obsGoodputBps:   rec.MeanGoodputBps(),
	}
}

// energyGoodputTables projects a proto × x campaign onto the paired
// energy-per-bit and goodput panels of Figs 9–11; x is the axis the
// figure sweeps, headed xHeader.
func energyGoodputTables(rep *campaign.Report, x, xHeader, energyTitle, goodputTitle string) []*metrics.Table {
	energyTbl := metrics.NewTable(energyTitle, xHeader, "proto", "uJ/bit", "±CI")
	goodputTbl := metrics.NewTable(goodputTitle, xHeader, "proto", "kbps", "±CI")
	for _, c := range rep.Cells {
		xv, _ := c.Cell.Get(x)
		e, g := c.Running(obsEnergyPerBit), c.Running(obsGoodputBps)
		energyTbl.AddRow(xv, c.Cell.String("proto"), e.Mean()*1e6, e.CI95()*1e6)
		goodputTbl.AddRow(xv, c.Cell.String("proto"), g.Mean()/1e3, g.CI95()/1e3)
	}
	return []*metrics.Table{energyTbl, goodputTbl}
}

// runRecordSample extracts the standard campaign observables from one
// run record. Batch campaigns report them for every cell so arbitrary
// user matrices and the paper figures speak the same metric names.
func runRecordSample(rec *metrics.RunRecord) campaign.Sample {
	s := campaign.Sample{
		obsEnergyPerBit: rec.EnergyPerBit(),
		obsGoodputBps:   rec.MeanGoodputBps(),
		obsDeliveredKB:  float64(rec.DeliveredBytes()) / 1e3,
		obsSourceRtx:    float64(rec.SourceRetransmissions()),
		obsCacheHits:    float64(rec.CacheHits),
		obsQueueDrops:   float64(rec.QueueDrops),
		obsRetryDrops:   float64(rec.RetryDrops),
	}
	// Budget-constrained runs additionally report battery deaths; the
	// observable only appears for scenarios that set budgets, so
	// unconstrained campaign tables keep their historical columns.
	if rec.EnergyBudgets != nil {
		s[obsBudgetDead] = float64(rec.BudgetDeadNodes)
	}
	return s
}
