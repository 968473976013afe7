package main

// jtpsim coord: the fault-tolerant shard coordinator. It splits a
// campaign into N shards, runs each as a supervised child jtpsim worker
// on a bounded process pool, restarts crashed or hung workers from their
// checkpoints with backoff, and auto-merges the shard files into a
// report byte-identical to the unsharded run's. It keeps no state of its
// own: the shard files and checkpoints in -out are the state, so the
// coordinator itself can be killed and resumed:
//
//	jtpsim coord -shards 8 -workers 4 -matrix sweep.json -out sweep.d
//	jtpsim coord -shards 4 -exp fig9 -scale 0.05 -out fig9.d -csv
//	jtpsim coord ... -chaos 0.5 -chaos-seed 7   # fault injection
//
// Interrupting the coordinator (or SIGKILLing it) and rerunning the same
// command resumes: a shard whose result file carries this campaign's
// fingerprint is done, every other shard relaunches from its checkpoint,
// and a shard file of another campaign is refused before any worker
// launches. -par, -workers and the supervision flags may change between
// runs. When shards exhaust their retry budget the coordinator still
// finishes the rest, emits a partial merge with explicit missing-shard
// accounting, and exits non-zero.

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/coordinator"
	"github.com/javelen/jtp/internal/experiments"
)

func coordMain(args []string) int {
	var (
		o  options
		bf batchFlags
	)
	fs := flag.NewFlagSet("coord", flag.ExitOnError)
	bf.register(fs)
	var (
		expID      = fs.String("exp", "", "figure experiment id to shard (alternative to -matrix)")
		scale      = fs.Float64("scale", 0.25, "scale for -exp workers")
		shards     = fs.Int("shards", 0, "number of campaign shards (required, >= 1)")
		workers    = fs.Int("workers", 0, "concurrent worker processes (0 = min(shards, CPUs))")
		outDir     = fs.String("out", "", "coordination directory: shard results, checkpoints and logs; rerunning over it resumes (required)")
		retries    = fs.Int("retries", 3, "restarts each shard may consume before failing permanently")
		backoff    = fs.Duration("backoff", 500*time.Millisecond, "restart backoff base (doubles per attempt, plus jitter)")
		backoffMax = fs.Duration("backoff-max", 15*time.Second, "restart backoff cap")
		stall      = fs.Duration("stall-timeout", 2*time.Minute, "declare a worker dead when its checkpoint is not rewritten for this long after it came due")
		ckInterval = fs.Duration("checkpoint-interval", 2*time.Second, "worker periodic checkpoint interval (short, so crashed workers lose little)")
		chaos      = fs.Float64("chaos", 0, "fault injection: per-second probability of SIGKILLing each running worker")
		chaosSeed  = fs.Int64("chaos-seed", 0, "seed for the chaos kill schedule and backoff jitter")
		poll       = fs.Duration("poll", 0, "supervision tick interval (liveness, chaos, backoff expiry; 0 = 200ms)")
		asJSON     = fs.Bool("json", false, "emit the merged report as JSON")
		quiet      = fs.Bool("q", false, "suppress the per-event supervision log on stderr")
	)
	fs.BoolVar(&o.csv, "csv", false, "emit the merged report as CSV")
	fs.IntVar(&o.par, "par", 1, "campaign worker-pool size inside each worker process")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve pprof/expvar with live coordinator state (jtpsim_coord) on this address")
	if !parseArgs(fs, "jtpsim coord", args) {
		return 2
	}

	if (bf.matrix == "") == (*expID == "") {
		fmt.Fprintln(os.Stderr, "jtpsim coord: exactly one of -matrix or -exp is required")
		return 2
	}
	// The campaign the workers run, and their command line: this binary
	// in batch or figure mode. The coordinator appends the per-shard
	// flags and the checkpoint interval, short so a killed worker
	// re-executes little, per launch. With -exp the merged report is
	// rendered as the figure's tables.
	var (
		m          campaign.Matrix
		workerArgs []string
		fig        *experiments.Figure
	)
	if *expID != "" {
		e, ok := lookupExperiment(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "jtpsim coord: unknown experiment %q (try jtpsim -list)\n", *expID)
			return 2
		}
		f := e.figure(*scale, bf.seed)
		fig, m = &f, f.Matrix
		workerArgs = []string{"-exp", *expID, "-scale", fmt.Sprint(*scale), "-seed", fmt.Sprint(bf.seed)}
	}
	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "jtpsim coord: -shards N (>= 1) is required")
		return 2
	}
	if *outDir == "" {
		fmt.Fprintln(os.Stderr, "jtpsim coord: -out <dir> is required")
		return 2
	}
	if bf.matrix != "" {
		// Loaded before anything is written: a bad -matrix fails here.
		spec, err := bf.load()
		if err != nil {
			fmt.Fprintf(os.Stderr, "jtpsim coord: %v\n", err)
			return 1
		}
		m = spec.Matrix()
		workerArgs = []string{"batch", "-matrix", bf.matrix,
			"-runs", fmt.Sprint(bf.runs), "-seconds", fmt.Sprint(bf.seconds), "-seed", fmt.Sprint(bf.seed)}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "jtpsim coord: %v\n", err)
		return 1
	}
	workerArgs = append(workerArgs, "-par", fmt.Sprint(o.par))

	var logw = os.Stderr
	cfg := coordinator.Config{
		WorkerBin:          self,
		WorkerArgs:         workerArgs,
		Matrix:             m,
		Shards:             *shards,
		Workers:            *workers,
		OutDir:             *outDir,
		RetryBudget:        *retries,
		BackoffBase:        *backoff,
		BackoffMax:         *backoffMax,
		CheckpointInterval: *ckInterval,
		StallTimeout:       *stall,
		Poll:               *poll,
		ChaosKillRate:      *chaos,
		ChaosSeed:          *chaosSeed,
	}
	if !*quiet {
		cfg.Log = logw
	}
	co, err := coordinator.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jtpsim coord: %v\n", err)
		return 1
	}
	if o.debugAddr != "" {
		bound, derr := startDebugServer(o.debugAddr, &o.state)
		if derr != nil {
			fmt.Fprintf(os.Stderr, "jtpsim coord: debug-addr: %v\n", derr)
			return 1
		}
		expvar.Publish("jtpsim_coord", expvar.Func(func() any { return co.Snapshot() }))
		fmt.Fprintf(os.Stderr, "jtpsim coord: debug server on http://%s/debug/vars (jtpsim_coord)\n", bound)
	}

	// First SIGINT/SIGTERM: stop workers gracefully (they checkpoint)
	// and exit — rerunning the same command resumes. Second: force quit
	// 130.
	ctx, stop := watchSignals(context.Background())
	defer stop()

	res, runErr := co.Run(ctx)
	if res != nil {
		printCoordSummary(res, *shards)
	}
	switch {
	case runErr != nil && ctx.Err() != nil:
		fmt.Fprintf(os.Stderr, "jtpsim coord: interrupted; rerun the same command to resume from %s\n", *outDir)
		return 1
	case runErr != nil:
		fmt.Fprintf(os.Stderr, "jtpsim coord: %v\n", runErr)
		return 1
	}

	if res.Report != nil {
		switch {
		case *asJSON:
			js, jerr := res.Report.JSON()
			if jerr != nil {
				fmt.Fprintf(os.Stderr, "jtpsim coord: %v\n", jerr)
				return 1
			}
			fmt.Println(string(js))
		case fig != nil && !res.Degraded():
			// A partial report lacks cells the figure's tables read.
			o.show(fig.Tables(res.Report)...)
		case o.csv:
			fmt.Print(res.Report.CSV())
		default:
			title := fmt.Sprintf("campaign %s (%d shards, %d runs, %d failures)",
				res.Report.Name, *shards, res.Report.Runs, res.Report.Failures)
			if res.Degraded() {
				title = fmt.Sprintf("campaign %s (PARTIAL: %d/%d shards, %d runs, %d failures)",
					res.Report.Name, len(res.Done), *shards, res.Report.Runs, res.Report.Failures)
			}
			o.show(res.Report.Table(title))
		}
	}
	if res.Degraded() {
		return 1
	}
	if res.Report != nil && res.Report.Failures > 0 {
		fmt.Fprintf(os.Stderr, "jtpsim coord: %v\n", res.Report.Err())
		return 1
	}
	return 0
}

// printCoordSummary reports the supervision outcome on stderr: shard
// classification, missing-work accounting for partial merges, and the
// coordinator telemetry counters.
func printCoordSummary(res *coordinator.Result, shards int) {
	fmt.Fprintf(os.Stderr, "jtpsim coord: %d/%d shards done", len(res.Done), shards)
	if len(res.Failed) > 0 {
		fmt.Fprintf(os.Stderr, ", failed %s", intList(res.Failed))
	}
	if len(res.Interrupted) > 0 {
		fmt.Fprintf(os.Stderr, ", interrupted %s", intList(res.Interrupted))
	}
	fmt.Fprintln(os.Stderr)
	for _, st := range res.Table {
		if st.LastError != "" && st.State == "failed" {
			fmt.Fprintf(os.Stderr, "jtpsim coord: shard %d failed after %d attempts: %s\n",
				st.Index, st.Attempts, st.LastError)
		}
	}
	if res.Gaps != nil && !res.Gaps.Complete() {
		fmt.Fprintf(os.Stderr, "jtpsim coord: PARTIAL result: missing shards %s (%d cells, %d runs)\n",
			intList(res.Gaps.Missing), res.Gaps.MissingCells, res.Gaps.MissingRuns)
	}
	if len(res.Counters) > 0 {
		// The counters a robustness post-mortem wants, in one line:
		// restarts, dead detections, total backoff, checkpoint-age HWM.
		keys := make([]string, 0, len(res.Counters))
		for k := range res.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			v := res.Counters[k]
			switch k {
			case "coord_backoff_ms_total":
				parts = append(parts, fmt.Sprintf("backoff_seconds_total=%.2f", float64(v)/1000))
			case "coord_checkpoint_age_ms_hwm":
				parts = append(parts, fmt.Sprintf("checkpoint_age_hwm=%.2fs", float64(v)/1000))
			default:
				parts = append(parts, fmt.Sprintf("%s=%d", strings.TrimPrefix(k, "coord_"), v))
			}
		}
		fmt.Fprintf(os.Stderr, "jtpsim coord: %s\n", strings.Join(parts, " "))
	}
}

// intList renders shard indices compactly.
func intList(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return "[" + strings.Join(parts, ",") + "]"
}
