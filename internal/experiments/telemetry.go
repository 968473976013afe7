package experiments

import (
	"context"
	"time"

	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/metrics"
)

// CampaignHooks configures campaign-wide telemetry for every figure and
// batch campaign in this package. It is process-global by design: the
// CLI sets it once before any campaign executes, and workers only read
// it, so no per-campaign plumbing (and no API churn across the figure
// functions) is needed.
type CampaignHooks struct {
	// Telemetry attaches an obs.Registry to every campaign run;
	// each run's snapshot rides its Sample under campaign.TelemetryPrefix
	// and folds into the report's Telemetry aggregates. The observable
	// aggregates — and therefore tables, CSVs and goldens — are
	// byte-identical either way.
	Telemetry bool
	// OnProgress, when non-nil, is passed to every campaign execution
	// (runs-completed / runs-per-sec / ETA / per-cell wall time, in
	// deterministic fold order).
	OnProgress func(p campaign.Progress)
	// Ctx, when non-nil, is the context every figure campaign executes
	// under (nil means context.Background()); the CLI threads its
	// SIGINT/SIGTERM context here so figure campaigns cancel cleanly.
	// Batch mode takes its context as an explicit argument instead.
	Ctx context.Context
	// Shard, Checkpoint and ShardOut mirror the campaign.Options fields
	// of the same names: deterministic slice selection for multi-process
	// sweeps, the durable checkpoint/resume path, and the per-shard
	// result file `jtpsim merge` folds back together.
	Shard      campaign.Shard
	Checkpoint string
	ShardOut   string
	// CheckpointInterval mirrors campaign.Options.CheckpointInterval
	// (zero keeps the campaign default). The coordinator shortens it so
	// chaos-killed workers still make forward progress between faults.
	CheckpointInterval time.Duration
	// Warn mirrors campaign.Options.Warn: non-fatal campaign
	// diagnostics, e.g. a corrupt checkpoint being discarded.
	Warn func(format string, args ...any)
	// OnInterrupted, when non-nil, observes a cancelled figure campaign
	// (its partial report and the cancellation error) before mustExecute
	// panics. The CLI uses it to report the saved checkpoint and exit;
	// if the handler returns, the panic proceeds.
	OnInterrupted func(rep *campaign.Report, err error)
}

// options assembles the campaign.Options every campaign entry point in
// this package shares, so shard/checkpoint configuration set once by the
// CLI reaches figure and batch campaigns alike.
func (h CampaignHooks) options(par int) campaign.Options {
	return campaign.Options{
		Workers:            par,
		OnProgress:         h.OnProgress,
		Shard:              h.Shard,
		Checkpoint:         h.Checkpoint,
		ShardOut:           h.ShardOut,
		CheckpointInterval: h.CheckpointInterval,
		Warn:               h.Warn,
	}
}

// ctx resolves the figure-campaign context.
func (h CampaignHooks) ctx() context.Context {
	if h.Ctx != nil {
		return h.Ctx
	}
	return context.Background()
}

// campaignHooks is read by campaign workers while they run; callers must
// only change it between campaigns (the CLI sets it once at startup).
var campaignHooks CampaignHooks

// SetCampaignHooks installs the process-wide campaign telemetry
// configuration. Call before executing campaigns, never during one.
func SetCampaignHooks(h CampaignHooks) { campaignHooks = h }

// telemetrySample merges a run's telemetry snapshot into its campaign
// sample under campaign.TelemetryPrefix. Every figure campaign's sample
// closure routes through it; with telemetry off (rec.Telemetry nil) it
// is an identity.
func telemetrySample(s campaign.Sample, rec *metrics.RunRecord) campaign.Sample {
	for k, v := range rec.Telemetry {
		s[campaign.TelemetryPrefix+k] = float64(v)
	}
	return s
}
