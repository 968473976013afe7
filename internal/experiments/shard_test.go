package experiments

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/javelen/jtp/internal/campaign"
)

// shardSpec is a small real-simulation matrix for shard equivalence:
// 3 cells × 2 runs of actual JTP chains, cheap enough for the unit tier.
func shardSpec() *BatchSpec {
	w := 5.0
	return &BatchSpec{
		Name:      "shard-equiv",
		Protocols: []string{"jtp"},
		Nodes:     []int{3, 4, 5},
		Flows:     1,
		Seconds:   60,
		Warmup:    &w,
		Runs:      2,
		Seed:      11,
	}
}

// execShardSpec runs the batch spec under the given campaign options.
func execShardSpec(t *testing.T, opt campaign.Options) *campaign.Report {
	t.Helper()
	rep, err := shardSpec().Execute(context.Background(), Options{Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestBatchShardMergeMatchesUnsharded executes a real batch campaign as
// three shards, merges the shard files, and requires the merged CSV and JSON to be byte-identical to
// the unsharded run's.
func TestBatchShardMergeMatchesUnsharded(t *testing.T) {
	base := execShardSpec(t, campaign.Options{Workers: 4})
	wantCSV := base.CSV()
	wantJSON, err := base.JSON()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	const of = 3
	files := make([]*campaign.ShardFile, of)
	for i := 0; i < of; i++ {
		out := filepath.Join(dir, fmt.Sprintf("shard%d.json", i))
		execShardSpec(t, campaign.Options{
			Workers:  2,
			Shard:    campaign.Shard{Index: i, Of: of},
			ShardOut: out,
		})
		if files[i], err = campaign.ReadShardFile(out); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := campaign.MergeReports(files...)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.CSV(); got != wantCSV {
		t.Fatalf("merged CSV differs from unsharded:\n--- merged ---\n%s--- unsharded ---\n%s", got, wantCSV)
	}
	gotJSON, err := merged.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("merged JSON differs from unsharded:\n--- merged ---\n%s\n--- unsharded ---\n%s", gotJSON, wantJSON)
	}
}

// TestBatchCheckpointResumeMatchesClean runs a real batch campaign with
// a checkpoint, then re-executes against the now-complete checkpoint:
// the memoized report must match the clean run byte-for-byte without
// simulating anything again (the second Execute dispatches zero runs).
func TestBatchCheckpointResumeMatchesClean(t *testing.T) {
	base := execShardSpec(t, campaign.Options{Workers: 4})
	wantCSV := base.CSV()

	ck := filepath.Join(t.TempDir(), "ck.json")
	first := execShardSpec(t, campaign.Options{Workers: 4, Checkpoint: ck})
	if got := first.CSV(); got != wantCSV {
		t.Fatalf("checkpointed run differs from plain run:\n%s\nvs\n%s", got, wantCSV)
	}
	resumed := execShardSpec(t, campaign.Options{Workers: 4, Checkpoint: ck})
	if got := resumed.CSV(); got != wantCSV {
		t.Fatalf("resumed run differs from plain run:\n%s\nvs\n%s", got, wantCSV)
	}
}

// TestOneRunFiguresShardAndParEquivalence holds table1, fig3c, fig5 and
// fig8, the figures of one run per cell, to the campaign contract:
// their tables render the same bytes at par 1 and par 4, and from the
// merge of shards 0/2 and 1/2 as from the unsharded run.
func TestOneRunFiguresShardAndParEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		fig  Figure
	}{
		{"table1", Table1()},
		{"fig3c", Fig3c(fig3cTestCfg())},
		{"fig5", Fig5(fig5TestCfg())},
		{"fig8", Fig8(fig8TestCfg())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := figureCSV(t, tc.fig, workers(1))
			if got := figureCSV(t, tc.fig, workers(4)); !bytes.Equal(got, want) {
				t.Fatalf("par 4 differs from par 1:\n%s\nvs\n%s", got, want)
			}
			dir := t.TempDir()
			var files []*campaign.ShardFile
			for i := 0; i < 2; i++ {
				opt := workers(2)
				opt.Shard = campaign.Shard{Index: i, Of: 2}
				opt.ShardOut = filepath.Join(dir, fmt.Sprintf("s%d.json", i))
				figureReport(t, tc.fig, opt)
				f, err := campaign.ReadShardFile(opt.ShardOut)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			merged, err := campaign.MergeReports(files...)
			if err != nil {
				t.Fatal(err)
			}
			if got := tablesCSV(tc.fig.Tables(merged)...); !bytes.Equal(got, want) {
				t.Fatalf("merged shards differ from the unsharded run:\n%s\nvs\n%s", got, want)
			}
		})
	}
}
