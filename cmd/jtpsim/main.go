// Command jtpsim regenerates the paper's tables and figures on the
// simulated JAVeLEN substrate and runs arbitrary scenario campaigns.
//
// Usage:
//
//	jtpsim -exp fig9                   # one experiment at default scale
//	jtpsim -exp fig9 -par 8            # same, on 8 campaign workers
//	jtpsim -exp all -scale 0.2         # everything, scaled down 5x
//	jtpsim -list                       # enumerate experiment ids
//	jtpsim batch -matrix sweep.json    # user-declared scenario matrix
//	jtpsim gen -family rgg -nodes 20   # dump a generated workload scenario
//	jtpsim gen -replay dump.json       # replay a dumped scenario exactly
//	jtpsim batch -matrix m.json -shard 0/3 -shard-out s0.json
//	                                   # run one of three campaign shards
//	jtpsim merge s0.json s1.json s2.json
//	                                   # fold shard results into one report
//
// Every multi-run figure (figs 3, 4, 6, 7, 9, 10, 11 and table2) is a
// campaign on the internal/campaign worker pool, and so is batch mode;
// table1, fig3c, fig5 and fig8 are single runs. -par sets the pool size
// of every campaign (default: all CPUs); results are byte-identical for
// every -par value.
//
// Every campaign shards and resumes: -shard i/N executes one
// deterministic cell-granular slice of the sweep, -shard-out writes the
// slice's versioned result file, `jtpsim merge` folds a complete shard
// set into a report byte-identical to the unsharded run's, and
// -checkpoint makes progress durable across SIGINT/SIGTERM (rerunning
// the same command auto-resumes).
//
// Every mode accepts -cpuprofile/-memprofile to write pprof profiles of
// the run. Every campaign also accepts -telemetry out.jsonl (one JSON
// line of counters per completed run), -progress (stderr ticker with
// runs/sec and ETA) and -debug-addr :8484 (live net/http/pprof +
// expvar, including the folded campaign counters at /debug/vars) — none
// of which change any result byte. The campaign-only flags on a
// single-run experiment are a usage error (exit 2).
//
// Scale multiplies run counts, durations and transfer sizes relative to
// the paper's full setup (scale 1 reproduces the paper's run counts:
// 20 runs × 2500 s for Fig 9, etc.). The shapes are stable well below
// full scale; the defaults here favor minutes over hours.
//
// Batch mode reads a JSON matrix (see experiments.BatchSpec) crossing
// protocol × network size × mobility speed × loss tolerance × cache
// policy × channel profile, runs every cell with independent seeds, and
// emits per-cell aggregates as an aligned table, CSV (-csv), or JSON
// (-json). Tables go to stdout; diagnostics and -list go to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/experiments"
	"github.com/javelen/jtp/internal/metrics"
)

// asCSV switches table output to CSV (-csv flag).
var asCSV bool

// par is the campaign worker-pool size (-par flag; 0 = all CPUs).
var par int

// show prints one table in the selected format.
func show(t *metrics.Table) {
	if asCSV {
		if t.Title != "" {
			fmt.Printf("# %s\n", t.Title)
		}
		fmt.Print(t.CSV())
		return
	}
	fmt.Print(t)
}

// experiment is one -exp id: exactly one of run, a single-run
// experiment printing its own output, and figure, a campaign projected
// onto the paper's tables, is set.
type experiment struct {
	id     string
	desc   string
	run    func(scale float64, seed int64)
	figure func(scale float64, seed int64) experiments.Figure
}

func main() { os.Exit(run(os.Args[1:])) }

// run dispatches on the first word: a subcommand, or a flag of the
// figure mode. Any other word is an error — expMain would stop parsing
// flags at it and silently ignore the rest.
func run(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "batch":
			return batchMain(args[1:])
		case "gen":
			return genMain(args[1:])
		case "merge":
			return mergeMain(args[1:])
		case "coord":
			return coordMain(args[1:])
		}
		if !strings.HasPrefix(args[0], "-") {
			hint := "want batch, gen, merge or coord, or -exp <id>"
			if args[0] == "bench" {
				hint = "the benchmark is: go run -C bench ."
			}
			fmt.Fprintf(os.Stderr, "jtpsim: unknown subcommand %q (%s)\n", args[0], hint)
			return 2
		}
	}
	return expMain(args)
}

// expMain is the classic figure-reproduction mode.
func expMain(args []string) int {
	fs := flag.NewFlagSet("jtpsim", flag.ExitOnError)
	var (
		expID = fs.String("exp", "", "experiment id (see -list), or 'all'")
		scale = fs.Float64("scale", 0.25, "fraction of the paper's full run counts/durations (0..1]")
		seed  = fs.Int64("seed", 0, "base seed override (0 = experiment default)")
		list  = fs.Bool("list", false, "list experiment ids and exit")
	)
	fs.BoolVar(&asCSV, "csv", false, "emit tables as CSV (for plotting)")
	fs.IntVar(&par, "par", 0, "campaign worker-pool size (0 = all CPUs)")
	addProfileFlags(fs)
	addTelemetryFlags(fs)
	addShardFlags(fs)
	fs.Parse(args)

	exps := registry()
	if *list || *expID == "" {
		fmt.Fprintln(os.Stderr, "experiments (pass -exp <id>):")
		for _, e := range exps {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.id, e.desc)
		}
		fmt.Fprintln(os.Stderr, "or: jtpsim batch -matrix <file.json> [-par N] [-csv|-json]")
		fmt.Fprintln(os.Stderr, "or: jtpsim gen [-spec wl.json | -family chain|grid|rgg|star -nodes N] [-seed S] [-run|-replay dump.json] [-proto P] [-trace out.jsonl]")
		fmt.Fprintln(os.Stderr, "or: jtpsim merge [-csv|-json] shard0.json shard1.json ...")
		fmt.Fprintln(os.Stderr, "campaign telemetry: [-telemetry out.jsonl] [-progress] [-debug-addr :8484]")
		fmt.Fprintln(os.Stderr, "campaign sharding: [-shard i/N] [-shard-out file.json] [-checkpoint ck.json]")
		fmt.Fprintf(os.Stderr, "registered protocols: %s\n",
			strings.Join(experiments.RegisteredProtocols(), ", "))
		if !*list {
			// No experiment named: usage error.
			return 2
		}
		return 0
	}

	all := *expID == "all"
	selected := exps
	switch e, ok := lookupExperiment(*expID); {
	case all && shardingRequested():
		// Shard state (slice selection, checkpoint frontier, shard-out) is
		// per campaign; "all" runs many.
		fmt.Fprintln(os.Stderr, "jtpsim: -shard/-shard-out/-checkpoint need a single -exp, not 'all'")
		return 2
	case all:
	case !ok:
		fmt.Fprintf(os.Stderr, "jtpsim: unknown experiment %q (try -list)\n", *expID)
		return 2
	case e.figure == nil && campaignFlagsSet():
		fmt.Fprintf(os.Stderr, "jtpsim: -exp %s is a single run; -shard/-shard-out/-checkpoint/-status/-telemetry/-progress need a campaign: %s\n",
			e.id, campaignIDs())
		return 2
	default:
		selected = []experiment{e}
	}

	defer stopProfiles()
	if err := startProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "jtpsim: %v\n", err)
		return 1
	}
	defer stopTelemetry()
	opt, err := campaignOptions()
	if err != nil {
		fmt.Fprintf(os.Stderr, "jtpsim: %v\n", err)
		return 1
	}
	// SIGINT/SIGTERM cancel the running campaign; with -checkpoint the
	// fold frontier is persisted first, so rerunning resumes. A second
	// signal force-quits (exit 130).
	ctx, stopSignals := watchSignals(context.Background())
	defer stopSignals()

	for _, e := range selected {
		if all {
			fmt.Printf("==== %s: %s ====\n", e.id, e.desc)
		}
		if e.figure == nil {
			e.run(*scale, *seed)
		} else if err := runFigure(ctx, e.figure(*scale, *seed), opt); err != nil {
			fmt.Fprintf(os.Stderr, "jtpsim: %v\n", err)
			if ctx.Err() != nil && checkpointFlag != "" {
				fmt.Fprintf(os.Stderr, "jtpsim: checkpoint saved to %s; rerun the same command to resume\n",
					checkpointFlag)
			}
			return 1
		}
		if all {
			fmt.Println()
		}
	}
	return 0
}

// runFigure executes a figure campaign under opt and prints its tables.
func runFigure(ctx context.Context, f experiments.Figure, opt experiments.Options) error {
	rep, err := f.Report(ctx, opt)
	if err != nil && rep != nil && ctx.Err() != nil {
		return fmt.Errorf("cancelled: %w (%d runs folded, %d discarded)", err, rep.Runs, rep.Interrupted)
	}
	if err != nil {
		return err
	}
	for i, t := range f.Tables(rep) {
		if i > 0 {
			fmt.Println()
		}
		show(t)
	}
	return nil
}

// campaignOptions builds the options of every campaign the process runs
// from the -par, sharding, -status and telemetry flags, opening the
// sinks they name. Call stopTelemetry (deferred) to close them.
func campaignOptions() (experiments.Options, error) {
	opt := experiments.Options{Options: campaign.Options{
		Workers:            par,
		Shard:              shard,
		Checkpoint:         checkpointFlag,
		ShardOut:           shardOutFlag,
		CheckpointInterval: checkpointIvFlag,
		// Non-fatal campaign diagnostics (e.g. a corrupt checkpoint being
		// discarded for a cold start) surface on stderr.
		Warn: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "jtpsim: warning: "+format+"\n", args...)
		},
	}}
	if err := startStatusWriter(&opt); err != nil {
		return opt, err
	}
	return opt, startTelemetry(&opt)
}

// batchMain runs a user-declared scenario matrix: jtpsim batch -matrix
// file.json [-par N] [-runs N] [-seconds S] [-csv|-json] [-v].
func batchMain(args []string) int {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	var (
		matrixPath = fs.String("matrix", "", "path to the JSON scenario matrix (required)")
		runs       = fs.Int("runs", 0, "override the spec's runs per cell")
		seconds    = fs.Float64("seconds", 0, "override the spec's virtual run length")
		seed       = fs.Int64("seed", 0, "override the spec's base seed")
		asJSON     = fs.Bool("json", false, "emit the aggregate report as JSON")
		verbose    = fs.Bool("v", false, "log each completed run to stderr")
	)
	fs.BoolVar(&asCSV, "csv", false, "emit the aggregate report as CSV")
	fs.IntVar(&par, "par", 0, "campaign worker-pool size (0 = all CPUs)")
	addProfileFlags(fs)
	addTelemetryFlags(fs)
	addShardFlags(fs)
	fs.Parse(args)
	defer stopProfiles()
	if err := startProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "jtpsim batch: %v\n", err)
		return 1
	}
	defer stopTelemetry()
	opt, err := campaignOptions()
	if err != nil {
		fmt.Fprintf(os.Stderr, "jtpsim batch: %v\n", err)
		return 1
	}

	if *matrixPath == "" {
		fmt.Fprintln(os.Stderr, "jtpsim batch: -matrix <file.json> is required")
		fs.SetOutput(os.Stderr)
		fs.PrintDefaults()
		fmt.Fprintf(os.Stderr, "matrix \"protocols\" accepts any registered driver: %s\n",
			strings.Join(experiments.RegisteredProtocols(), ", "))
		return 2
	}
	data, err := os.ReadFile(*matrixPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jtpsim batch: %v\n", err)
		return 1
	}
	spec, err := experiments.ParseBatchSpec(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jtpsim batch: %v\n", err)
		return 1
	}
	if *runs > 0 {
		spec.Runs = *runs
	}
	if *seconds > 0 {
		spec.Seconds = *seconds
	}
	if *seed != 0 {
		spec.Seed = *seed
	}

	m := spec.Matrix()
	fmt.Fprintf(os.Stderr, "jtpsim batch: %s: %d cells × %d runs = %d simulations\n",
		spec.Name, m.NumCells(), spec.Runs, m.NumRuns())
	if opt.Shard.Enabled() {
		lo, hi := opt.Shard.CellRange(m.NumCells())
		fmt.Fprintf(os.Stderr, "jtpsim batch: shard %s: cells [%d,%d), %d simulations\n",
			opt.Shard, lo, hi, (hi-lo)*spec.Runs)
	}

	// Ctrl-C cancels the campaign; the partial report is still emitted
	// after the final checkpoint write. A second Ctrl-C force-quits
	// (exit 130).
	ctx, stop := watchSignals(context.Background())
	defer stop()

	if *verbose {
		total := m.NumRuns()
		opt.OnResult = func(s campaign.RunSpec, _ campaign.Sample, err error) {
			status := "ok"
			if err != nil {
				status = "FAIL: " + err.Error()
			}
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s run=%d seed=%d %s\n",
				s.Index+1, total, s.Cell.Key(), s.Run, s.Seed, status)
		}
	}

	rep, err := spec.Execute(ctx, opt)
	if err != nil && rep == nil {
		// Pre-execution failure (bad spec, unresumable checkpoint, ...).
		fmt.Fprintf(os.Stderr, "jtpsim batch: %v\n", err)
		return 1
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "jtpsim batch: cancelled: %v (%d/%d runs aggregated, %d discarded)\n",
			err, rep.Runs, m.NumRuns(), rep.Interrupted)
		if checkpointFlag != "" {
			fmt.Fprintf(os.Stderr, "jtpsim batch: checkpoint saved to %s; rerun the same command to resume\n",
				checkpointFlag)
		}
	}

	switch {
	case *asJSON:
		js, jerr := rep.JSON()
		if jerr != nil {
			fmt.Fprintf(os.Stderr, "jtpsim batch: %v\n", jerr)
			return 1
		}
		fmt.Println(string(js))
	case asCSV:
		fmt.Print(rep.CSV())
	default:
		// No observable list: render every observable the cells report
		// (energy, goodput, cache hits, rtx, drops, ...).
		title := fmt.Sprintf("campaign %s (%d runs, %d failures)", rep.Name, rep.Runs, rep.Failures)
		show(rep.Table(title))
	}
	if rep.Failures > 0 {
		fmt.Fprintf(os.Stderr, "jtpsim batch: %v\n", rep.Err())
		return 1
	}
	if err != nil {
		return 1
	}
	return 0
}

func registry() []experiment {
	exps := []experiment{
		{id: "table1", desc: "default parameter values", run: func(_ float64, _ int64) {
			show(experiments.Defaults())
		}},
		{id: "fig3", desc: "adjustable reliability: energy & data delivered (jtp0/10/20)", figure: func(s float64, seed int64) experiments.Figure {
			cfg := experiments.Fig3Defaults(s)
			seeded(&cfg.Seed, seed)
			return experiments.Fig3(cfg)
		}},
		{id: "fig3c", desc: "per-packet link-layer attempt budget at a mid-path node", run: func(s float64, seed int64) {
			if seed == 0 {
				seed = 33
			}
			pkts := int(300 * s)
			if pkts < 100 {
				pkts = 100
			}
			for _, res := range experiments.Fig3c(pkts, seed) {
				fmt.Printf("Fig 3(c): max link-layer transmissions per packet, node %d, jtp%d\n",
					res.NodeIndex+1, int(res.LossTolerance*100))
				fmt.Print(sparkline(res))
				fmt.Println()
			}
		}},
		{id: "fig4", desc: "in-network caching gain: JTP vs JNC", figure: func(s float64, seed int64) experiments.Figure {
			cfg := experiments.Fig4Defaults(s)
			seeded(&cfg.Seed, seed)
			return experiments.Fig4(cfg)
		}},
		{id: "fig5", desc: "source back-off fairness for locally recovered packets", run: func(s float64, seed int64) {
			cfg := experiments.Fig5Defaults()
			if s < 1 {
				cfg.Seconds *= s * 2
				if cfg.Seconds < 600 {
					cfg.Seconds = 600
				}
			}
			seeded(&cfg.Seed, seed)
			show(experiments.Fig5Summary(experiments.Fig5(cfg)))
		}},
		{id: "fig6", desc: "source retransmissions vs cache size", figure: func(s float64, seed int64) experiments.Figure {
			cfg := experiments.Fig6Defaults(s)
			seeded(&cfg.Seed, seed)
			return experiments.Fig6(cfg)
		}},
		{id: "fig7", desc: "constant vs variable feedback: energy & queue drops", figure: func(s float64, seed int64) experiments.Figure {
			cfg := experiments.Fig7Defaults(s)
			seeded(&cfg.Seed, seed)
			return experiments.Fig7(cfg)
		}},
		{id: "fig8", desc: "PI2/MD rate adaptation of two competing flows", run: func(s float64, seed int64) {
			cfg := experiments.Fig8Defaults()
			seeded(&cfg.Seed, seed)
			res := experiments.Fig8(cfg)
			show(experiments.Fig8Summary(res, cfg))
			fmt.Printf("\nmonitor shifts at: %.0fs (flow2 lifetime %.0f-%.0fs)\n",
				res.Shifts, cfg.Flow2Start, cfg.Flow2End)
		}},
		{id: "fig9", desc: "linear topologies: energy/bit & goodput (jtp/atp/tcp)", figure: func(s float64, seed int64) experiments.Figure {
			cfg := experiments.Fig9Defaults(s)
			seeded(&cfg.Seed, seed)
			return experiments.Fig9(cfg)
		}},
		{id: "fig10", desc: "static random topologies: energy/bit & goodput", figure: func(s float64, seed int64) experiments.Figure {
			cfg := experiments.Fig10Defaults(s)
			seeded(&cfg.Seed, seed)
			return experiments.Fig10(cfg)
		}},
		{id: "fig11", desc: "mobility: energy/bit, goodput, local vs e2e recovery", figure: func(s float64, seed int64) experiments.Figure {
			cfg := experiments.Fig11Defaults(s)
			seeded(&cfg.Seed, seed)
			return experiments.Fig11(cfg)
		}},
		{id: "table2", desc: "JAVeLEN testbed scenario (stable links, Poisson flows)", figure: func(s float64, seed int64) experiments.Figure {
			cfg := experiments.Table2Defaults(s)
			seeded(&cfg.Seed, seed)
			return experiments.Table2(cfg)
		}},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].id < exps[j].id })
	return exps
}

// seeded applies the -seed override (0 keeps the experiment default).
func seeded(dst *int64, seed int64) {
	if seed != 0 {
		*dst = seed
	}
}

// lookupExperiment finds an -exp id, case-insensitively.
func lookupExperiment(id string) (experiment, bool) {
	id = strings.ToLower(id)
	for _, e := range registry() {
		if e.id == id {
			return e, true
		}
	}
	return experiment{}, false
}

// campaignIDs lists the ids of the campaign experiments, the ones the
// campaign-only flags and `jtpsim coord -exp` accept.
func campaignIDs() string {
	var ids []string
	for _, e := range registry() {
		if e.figure != nil {
			ids = append(ids, e.id)
		}
	}
	return strings.Join(ids, ", ")
}

// sparkline renders the Fig 3(c) attempt trace as rows of packet-index
// ranges per attempt level.
func sparkline(res *experiments.Fig3cResult) string {
	var b strings.Builder
	counts := map[int]int{}
	for _, s := range res.Samples {
		counts[s.Attempts]++
	}
	for lvl := 1; lvl <= 5; lvl++ {
		if counts[lvl] == 0 {
			continue
		}
		bar := strings.Repeat("#", scaleBar(counts[lvl], len(res.Samples)))
		fmt.Fprintf(&b, "  %d attempts | %-50s (%d pkts)\n", lvl, bar, counts[lvl])
	}
	return b.String()
}

func scaleBar(n, total int) int {
	if total == 0 {
		return 0
	}
	w := n * 50 / total
	if w == 0 && n > 0 {
		w = 1
	}
	return w
}
