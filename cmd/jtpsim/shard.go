package main

// Sharding & checkpointing for every campaign (batch and every
// experiment):
//
//	jtpsim batch -matrix m.json -shard 0/3 -shard-out s0.json \
//	             -checkpoint s0.ck.json
//	jtpsim -exp fig4 -shard 1/3 -shard-out fig4.s1.json
//	jtpsim merge s0.json s1.json s2.json        # fold shard results
//
// -shard i/N executes only the i-th of N deterministic, cell-granular
// slices of the campaign, so a million-run sweep spreads across
// machines. -shard-out writes the shard's versioned result file when the
// slice completes; `jtpsim merge` folds a complete set of shard files
// into one report that is byte-identical to the unsharded run's.
// -checkpoint makes progress durable. A checkpoint is the shard file
// written before the slice completes; its run count is the fold
// frontier. It is written durably as the campaign runs and once more on
// SIGINT/SIGTERM, and rerunning the same command auto-resumes from it —
// a killed shard loses at most the runs inside the reorder window, and
// those rerun with the same seeds. A completed slice's final checkpoint
// equals its -shard-out file byte for byte; `jtpsim merge` refuses a
// checkpoint whose slice is not complete.

import (
	"flag"
	"fmt"
	"os"

	"github.com/javelen/jtp/internal/campaign"
)

// sharded reports whether any sharding flag is in play.
func (o *options) sharded() bool {
	return o.shard.Of != 0 || o.shardOut != "" || o.checkpoint != ""
}

// mergeMain folds shard result files into one report: jtpsim merge
// [-csv|-json] shard0.json shard1.json ... The merged report is
// byte-identical to the one a single unsharded process would have
// emitted (see campaign.MergeReports for the determinism contract).
func mergeMain(args []string) int {
	var o options
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the merged report as JSON")
	fs.BoolVar(&o.csv, "csv", false, "emit the merged report as CSV")
	fs.Parse(args)
	paths := fs.Args()
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "jtpsim merge: usage: jtpsim merge [-csv|-json] shard0.json shard1.json ...")
		fmt.Fprintln(os.Stderr, "shard files come from campaign runs with -shard i/N -shard-out <file>")
		return 2
	}
	files := make([]*campaign.ShardFile, len(paths))
	for i, p := range paths {
		f, err := campaign.ReadShardFile(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jtpsim merge: %v\n", err)
			return 1
		}
		files[i] = f
	}
	rep, err := campaign.MergeReports(files...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jtpsim merge: %v\n", err)
		return 1
	}

	switch {
	case *asJSON:
		js, jerr := rep.JSON()
		if jerr != nil {
			fmt.Fprintf(os.Stderr, "jtpsim merge: %v\n", jerr)
			return 1
		}
		fmt.Println(string(js))
	case o.csv:
		fmt.Print(rep.CSV())
	default:
		o.show(rep.Table(fmt.Sprintf("campaign %s (%d shards, %d runs, %d failures)",
			rep.Name, len(files), rep.Runs, rep.Failures)))
	}
	if rep.Failures > 0 {
		fmt.Fprintf(os.Stderr, "jtpsim merge: %v\n", rep.Err())
		return 1
	}
	return 0
}
