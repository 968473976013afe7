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
// The campaign modes (experiments and batch) shard and resume: -shard
// i/N executes one deterministic cell-granular slice of the sweep,
// -shard-out writes the slice's versioned result file, `jtpsim merge`
// folds a complete shard set into a report byte-identical to the
// unsharded run's, and -checkpoint makes progress durable across
// SIGINT/SIGTERM (rerunning the same command auto-resumes).
//
// Every mode accepts -cpuprofile/-memprofile to write pprof profiles of
// the run. The campaign modes (experiments and batch) also accept
// -telemetry out.jsonl (one JSON line of counters per completed run),
// -progress (stderr ticker with runs/sec and ETA) and -debug-addr :8484
// (live net/http/pprof + expvar, including the folded campaign counters
// at /debug/vars) — none of which change any result byte.
//
// Scale multiplies run counts, durations and transfer sizes relative to
// the paper's full setup (scale 1 reproduces the paper's run counts:
// 20 runs × 2500 s for Fig 9, etc.). The shapes are stable well below
// full scale; the defaults here favor minutes over hours.
//
// The multi-run experiments (figs 9–11) and batch mode execute on the
// internal/campaign worker pool; -par sets the pool size (default: all
// CPUs). Results are byte-identical for every -par value.
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

type experiment struct {
	id   string
	desc string
	run  func(scale float64, seed int64)
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
	return expMain()
}

// expMain is the classic figure-reproduction mode.
func expMain() int {
	var (
		expID = flag.String("exp", "", "experiment id (see -list), or 'all'")
		scale = flag.Float64("scale", 0.25, "fraction of the paper's full run counts/durations (0..1]")
		seed  = flag.Int64("seed", 0, "base seed override (0 = experiment default)")
		list  = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.BoolVar(&asCSV, "csv", false, "emit tables as CSV (for plotting)")
	flag.IntVar(&par, "par", 0, "campaign worker-pool size (0 = all CPUs)")
	addProfileFlags(flag.CommandLine)
	addTelemetryFlags(flag.CommandLine)
	addShardFlags(flag.CommandLine)
	flag.Parse()
	defer stopProfiles()
	if err := startProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "jtpsim: %v\n", err)
		return 1
	}
	// Shard state (slice selection, checkpoint frontier, shard-out) is
	// per campaign; "all" runs many.
	if shardingRequested() && *expID == "all" {
		fmt.Fprintln(os.Stderr, "jtpsim: -shard/-shard-out/-checkpoint need a single -exp, not 'all'")
		return 2
	}
	if err := applyShardFlags(); err != nil {
		fmt.Fprintf(os.Stderr, "jtpsim: %v\n", err)
		return 2
	}
	// SIGINT/SIGTERM cancel the running campaign; with -checkpoint the
	// fold frontier is persisted first, so rerunning resumes. A second
	// signal force-quits (exit 130).
	ctx, stopSignals := watchSignals(context.Background())
	defer stopSignals()
	cliHooks.Ctx = ctx
	cliHooks.OnInterrupted = expInterrupted
	defer stopTelemetry()
	if err := startTelemetry(); err != nil {
		fmt.Fprintf(os.Stderr, "jtpsim: %v\n", err)
		return 1
	}

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

	if *expID == "all" {
		for _, e := range exps {
			fmt.Printf("==== %s: %s ====\n", e.id, e.desc)
			e.run(*scale, *seed)
			fmt.Println()
		}
		return 0
	}
	id := strings.ToLower(*expID)
	for _, e := range exps {
		if e.id == id {
			e.run(*scale, *seed)
			return 0
		}
	}
	fmt.Fprintf(os.Stderr, "jtpsim: unknown experiment %q (try -list)\n", *expID)
	return 2
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
	if err := applyShardFlags(); err != nil {
		fmt.Fprintf(os.Stderr, "jtpsim batch: %v\n", err)
		return 2
	}
	defer stopTelemetry()
	if err := startTelemetry(); err != nil {
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
	if cliHooks.Shard.Enabled() {
		lo, hi := cliHooks.Shard.CellRange(m.NumCells())
		fmt.Fprintf(os.Stderr, "jtpsim batch: shard %s: cells [%d,%d), %d simulations\n",
			cliHooks.Shard, lo, hi, (hi-lo)*spec.Runs)
	}

	// Ctrl-C cancels the campaign; the partial report is still emitted
	// after the final checkpoint write. A second Ctrl-C force-quits
	// (exit 130).
	ctx, stop := watchSignals(context.Background())
	defer stop()

	var onResult func(campaign.RunSpec, campaign.Sample, error)
	if *verbose {
		total := m.NumRuns()
		onResult = func(s campaign.RunSpec, _ campaign.Sample, err error) {
			status := "ok"
			if err != nil {
				status = "FAIL: " + err.Error()
			}
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s run=%d seed=%d %s\n",
				s.Index+1, total, s.Cell.Key(), s.Run, s.Seed, status)
		}
	}

	rep, err := spec.Execute(ctx, par, onResult)
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
		{"table1", "default parameter values", func(_ float64, _ int64) {
			show(experiments.Defaults())
		}},
		{"fig3", "adjustable reliability: energy & data delivered (jtp0/10/20)", func(s float64, seed int64) {
			cfg := experiments.Fig3Defaults(s)
			if seed != 0 {
				cfg.Seed = seed
			}
			points := experiments.Fig3(cfg)
			a, b := experiments.Fig3Tables(points, cfg.TransferPackets)
			show(a)
			fmt.Println()
			show(b)
		}},
		{"fig3c", "per-packet link-layer attempt budget at a mid-path node", func(s float64, seed int64) {
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
		{"fig4", "in-network caching gain: JTP vs JNC", func(s float64, seed int64) {
			cfg := experiments.Fig4Defaults(s)
			if seed != 0 {
				cfg.Seed = seed
			}
			points := experiments.Fig4(cfg)
			perNode := experiments.Fig4b(cfg)
			a, b := experiments.Fig4Tables(points, perNode)
			show(a)
			fmt.Println()
			show(b)
		}},
		{"fig5", "source back-off fairness for locally recovered packets", func(s float64, seed int64) {
			cfg := experiments.Fig5Defaults()
			if s < 1 {
				cfg.Seconds *= s * 2
				if cfg.Seconds < 600 {
					cfg.Seconds = 600
				}
			}
			if seed != 0 {
				cfg.Seed = seed
			}
			show(experiments.Fig5Table(experiments.Fig5(cfg)))
		}},
		{"fig6", "source retransmissions vs cache size", func(s float64, seed int64) {
			cfg := experiments.Fig6Defaults(s)
			if seed != 0 {
				cfg.Seed = seed
			}
			show(experiments.Fig6Table(experiments.Fig6(cfg)))
		}},
		{"fig7", "constant vs variable feedback: energy & queue drops", func(s float64, seed int64) {
			cfg := experiments.Fig7Defaults(s)
			if seed != 0 {
				cfg.Seed = seed
			}
			a, b := experiments.Fig7Tables(experiments.Fig7(cfg))
			show(a)
			fmt.Println()
			show(b)
		}},
		{"fig8", "PI2/MD rate adaptation of two competing flows", func(s float64, seed int64) {
			cfg := experiments.Fig8Defaults()
			if seed != 0 {
				cfg.Seed = seed
			}
			res := experiments.Fig8(cfg)
			show(experiments.Fig8Table(res, cfg))
			fmt.Printf("\nmonitor shifts at: %.0fs (flow2 lifetime %.0f-%.0fs)\n",
				res.Shifts, cfg.Flow2Start, cfg.Flow2End)
		}},
		{"fig9", "linear topologies: energy/bit & goodput (jtp/atp/tcp)", func(s float64, seed int64) {
			cfg := experiments.Fig9Defaults(s)
			if seed != 0 {
				cfg.Seed = seed
			}
			cfg.Par = par
			a, b := experiments.Fig9Table(experiments.Fig9(cfg))
			show(a)
			fmt.Println()
			show(b)
		}},
		{"fig10", "static random topologies: energy/bit & goodput", func(s float64, seed int64) {
			cfg := experiments.Fig10Defaults(s)
			if seed != 0 {
				cfg.Seed = seed
			}
			cfg.Par = par
			a, b := experiments.Fig10Tables(experiments.Fig10(cfg))
			show(a)
			fmt.Println()
			show(b)
		}},
		{"fig11", "mobility: energy/bit, goodput, local vs e2e recovery", func(s float64, seed int64) {
			cfg := experiments.Fig11Defaults(s)
			if seed != 0 {
				cfg.Seed = seed
			}
			cfg.Par = par
			a, b, c := experiments.Fig11Tables(experiments.Fig11(cfg))
			show(a)
			fmt.Println()
			show(b)
			fmt.Println()
			show(c)
		}},
		{"table2", "JAVeLEN testbed scenario (stable links, Poisson flows)", func(s float64, seed int64) {
			cfg := experiments.Table2Defaults(s)
			if seed != 0 {
				cfg.Seed = seed
			}
			show(experiments.Table2Table(experiments.Table2(cfg)))
		}},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].id < exps[j].id })
	return exps
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
