package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/javelen/jtp/internal/campaign"
)

// TestConcurrentCampaignsShareAProcess runs two campaigns with different
// options at once in one process — a telemetry-on Fig 9 shard that writes
// its shard file, and a plain batch campaign on 4 workers — and requires
// each to be byte-identical to its solo run. Options belong to their
// campaign, so neither may see the other's: telemetry shows up only in
// the first, and its shard file merges like a solo shard. CI runs it
// under the race detector.
func TestConcurrentCampaignsShareAProcess(t *testing.T) {
	fig := Fig9(Fig9Config{
		Sizes:     []int{2, 4},
		Runs:      2,
		Seconds:   300,
		Warmup:    60,
		Protocols: []Protocol{JTP, TCP},
		Seed:      42,
	})
	dir := t.TempDir()
	figShard := func(index int, out string) Options {
		opt := withTelemetry(Options{})
		opt.Shard = campaign.Shard{Index: index, Of: 2}
		opt.ShardOut = filepath.Join(dir, out)
		return opt
	}

	ctx, batchOpt := context.Background(), workers(4)
	var (
		wg               sync.WaitGroup
		figRep, batchRep *campaign.Report
		figErr, batchErr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		figRep, figErr = fig.Report(ctx, figShard(0, "together.json"))
	}()
	go func() {
		defer wg.Done()
		batchRep, batchErr = shardSpec().Execute(ctx, batchOpt)
	}()
	wg.Wait()
	if figErr != nil || batchErr != nil {
		t.Fatalf("concurrent campaigns failed: fig9 %v, batch %v", figErr, batchErr)
	}

	soloFig := figureReport(t, fig, figShard(0, "solo.json"))
	soloBatch := execShardSpec(t, batchOpt.Options)
	requireSameReport(t, "fig9 shard 0/2", figRep, soloFig)
	requireSameReport(t, "batch", batchRep, soloBatch)
	if figRep.TelemetryNames() == nil {
		t.Error("the telemetry-on campaign folded no telemetry")
	}
	if names := batchRep.TelemetryNames(); names != nil {
		t.Errorf("the plain campaign folded telemetry %v", names)
	}

	together, err := os.ReadFile(filepath.Join(dir, "together.json"))
	if err != nil {
		t.Fatal(err)
	}
	solo, err := os.ReadFile(filepath.Join(dir, "solo.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(together, solo) {
		t.Fatalf("shard file written beside another campaign differs from the solo one:\n%s\nvs\n%s", together, solo)
	}
	figureReport(t, fig, figShard(1, "s1.json"))
	var files []*campaign.ShardFile
	for _, name := range []string{"together.json", "s1.json"} {
		f, err := campaign.ReadShardFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	merged, err := campaign.MergeReports(files...)
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, "merged fig9", merged, figureReport(t, fig, withTelemetry(Options{})))
}

// requireSameReport compares two reports' CSV and JSON (which carries the
// telemetry aggregates) byte for byte.
func requireSameReport(t *testing.T, label string, got, want *campaign.Report) {
	t.Helper()
	gotJSON, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if got.CSV() != want.CSV() || !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("%s: report differs from its solo run:\n%s\nvs\n%s", label, gotJSON, wantJSON)
	}
}
