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
// Every experiment — figs 3, 3c, 4, 5, 6, 7, 8, 9, 10, 11 and tables 1
// and 2 — is a campaign on the internal/campaign worker pool, and so is
// batch mode. -par sets the pool size of every campaign (default: all
// CPUs); results are byte-identical for every -par value.
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
// of which change any result byte.
//
// Scale multiplies run counts, durations and transfer sizes relative to
// the paper's full setup (scale 1 reproduces the paper's run counts:
// 20 runs × 2500 s for Fig 9, etc.). The whole paper at scale 1 takes
// about 10 s of wall time on two cores; the default of 0.25 is for a
// quick look at the shapes, which are stable well below full scale.
//
// Batch mode reads a JSON matrix (see experiments.BatchSpec) crossing
// protocol × network size × mobility speed × loss tolerance × cache
// policy × channel profile, runs every cell with independent seeds, and
// emits per-cell aggregates as an aligned table, CSV (-csv), or JSON
// (-json). Tables go to stdout; diagnostics and -list go to stderr.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/experiments"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/transport/drivers"
)

// options is one invocation's configuration — the flags of its mode —
// and the sinks those flags open. The command keeps no other state, so
// one process can run it many times.
type options struct {
	csv bool // -csv: emit tables as CSV
	par int  // -par: campaign worker-pool size (0 = all CPUs)

	cpuProfile, memProfile string // -cpuprofile, -memprofile
	cpuFile                *os.File

	shard        campaign.Shard // -shard i/N
	shardOut     string         // -shard-out
	checkpoint   string         // -checkpoint
	checkpointIv time.Duration  // -checkpoint-interval
	verbose      bool           // batch -v
	runs         int            // the campaign's run count, for -v lines

	chaosArmed  bool
	chaosExitAt int // the fold seq an armed worker dies at

	telemetry string // -telemetry
	progress  bool   // -progress
	debugAddr string // -debug-addr

	telemetryFile     *os.File
	telemetryEnc      *json.Encoder
	lastProgressPrint time.Time
	state             campaignState // folded counters served at /debug/vars
}

// campaignFlags registers the flags of the campaign modes, figures and
// batch.
func (o *options) campaignFlags(fs *flag.FlagSet) {
	fs.BoolVar(&o.csv, "csv", false, "emit tables as CSV (for plotting)")
	fs.IntVar(&o.par, "par", 0, "campaign worker-pool size (0 = all CPUs)")
	o.profileFlags(fs)
	fs.StringVar(&o.telemetry, "telemetry", "", "write per-run telemetry as JSON lines to this file")
	fs.BoolVar(&o.progress, "progress", false, "print campaign progress and ETA to stderr")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. :8484)")
	fs.Func("shard", "execute only shard i/N of the campaign (e.g. 0/3)", func(v string) (err error) {
		o.shard, err = campaign.ParseShard(v)
		return err
	})
	fs.StringVar(&o.shardOut, "shard-out", "", "write this shard's result file here on completion (fold with 'jtpsim merge')")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "durable checkpoint file; auto-resumes when it already exists")
	fs.DurationVar(&o.checkpointIv, "checkpoint-interval", 0, "max wall clock between periodic checkpoints (0 = campaign default)")
}

// start opens what the campaign flags ask for — the profiles and the
// telemetry sink — arms the chaos exit (see chaos.go) and watches
// SIGINT/SIGTERM. It returns the campaign options and a context the
// first signal cancels (with -checkpoint the fold frontier is persisted
// first, so rerunning resumes; a second signal force-quits, exit 130).
// stop, which start returns even on error, closes everything.
func (o *options) start() (opt experiments.Options, ctx context.Context, stop func(), err error) {
	opt = experiments.Options{Options: campaign.Options{
		Workers:            o.par,
		Shard:              o.shard,
		Checkpoint:         o.checkpoint,
		ShardOut:           o.shardOut,
		CheckpointInterval: o.checkpointIv,
		// Non-fatal campaign diagnostics (e.g. a corrupt checkpoint being
		// discarded for a cold start) surface on stderr.
		Warn: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "jtpsim: warning: "+format+"\n", args...)
		},
	}}
	ctx, stopSignals := watchSignals(context.Background())
	stop = func() {
		stopSignals()
		o.stopSinks()
		o.stopProfiles()
	}
	if err = o.startProfiles(); err == nil {
		if err = o.armChaosExit(opt.Shard.Index); err == nil {
			err = o.startTelemetry(&opt)
		}
	}
	if o.verbose || o.chaosArmed || opt.Telemetry || o.progress {
		opt.OnProgress = o.onProgress
	}
	return opt, ctx, stop, err
}

// onProgress is the campaign's one progress hook, called once per folded
// run in fold order. It writes the -v line, then the telemetry line, the
// /debug/vars fold and the -progress ticker, then fires an armed chaos
// exit — last, so it leaves this run's telemetry line written.
func (o *options) onProgress(p campaign.Progress) {
	if o.verbose {
		status := "ok"
		if p.Err != nil {
			status = "FAIL: " + p.Err.Error()
		}
		fmt.Fprintf(os.Stderr, "  [%d/%d] %s run=%d seed=%d %s\n",
			p.Spec.Index+1, o.runs, p.Spec.Cell.Key(), p.Spec.Run, p.Spec.Seed, status)
	}
	o.onCampaignProgress(p)
	if o.chaosArmed && p.Done >= o.chaosExitAt {
		o.chaosSuicide(p.Done)
	}
}

// cancelled reports a campaign the first signal interrupted: how much
// of its total was folded and, with -checkpoint, how to resume.
func (o *options) cancelled(prog string, err error, rep *campaign.Report, total int) {
	fmt.Fprintf(os.Stderr, "%s: cancelled: %v (%d/%d runs aggregated, %d discarded)\n",
		prog, err, rep.Runs, total, rep.Interrupted)
	if o.checkpoint != "" {
		fmt.Fprintf(os.Stderr, "%s: checkpoint saved to %s; rerun the same command to resume\n", prog, o.checkpoint)
	}
}

// show prints tables in the selected format, a blank line apart.
func (o *options) show(tables ...*metrics.Table) {
	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		if !o.csv {
			fmt.Print(t)
			continue
		}
		if t.Title != "" {
			fmt.Printf("# %s\n", t.Title)
		}
		fmt.Print(t.CSV())
	}
}

// experiment is one -exp id: a paper figure or table at a scale and a
// base seed (0 keeps the experiment's default).
type experiment struct {
	id     string
	desc   string
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

// parseArgs parses args into fs for a mode that takes no positional
// argument, and rejects one, naming it on stderr. Flag parsing stops at
// the first word that is not a flag, so without the check every flag
// after it would be dropped silently.
func parseArgs(fs *flag.FlagSet, cmd string, args []string) bool {
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "%s: unexpected argument %q\n", cmd, fs.Arg(0))
		return false
	}
	return true
}

// expMain is the classic figure-reproduction mode.
func expMain(args []string) int {
	var o options
	fs := flag.NewFlagSet("jtpsim", flag.ExitOnError)
	var (
		expID = fs.String("exp", "", "experiment id (see -list), or 'all'")
		scale = fs.Float64("scale", 0.25, "fraction of the paper's full run counts/durations (0..1]")
		seed  = fs.Int64("seed", 0, "base seed override (0 = experiment default)")
		list  = fs.Bool("list", false, "list experiment ids and exit")
	)
	o.campaignFlags(fs)
	if !parseArgs(fs, "jtpsim", args) {
		return 2
	}

	if *list || *expID == "" {
		fmt.Fprintln(os.Stderr, "experiments (pass -exp <id>):")
		for _, e := range registry() {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.id, e.desc)
		}
		fmt.Fprintln(os.Stderr, "or: jtpsim batch -matrix <file.json> [-par N] [-csv|-json]")
		fmt.Fprintln(os.Stderr, "or: jtpsim gen [-spec wl.json | -family chain|grid|rgg|star -nodes N] [-seed S] [-run|-replay dump.json] [-proto P] [-trace out.jsonl]")
		fmt.Fprintln(os.Stderr, "or: jtpsim merge [-csv|-json] shard0.json shard1.json ...")
		fmt.Fprintln(os.Stderr, "campaign telemetry: [-telemetry out.jsonl] [-progress] [-debug-addr :8484]")
		fmt.Fprintln(os.Stderr, "campaign sharding: [-shard i/N] [-shard-out file.json] [-checkpoint ck.json]")
		fmt.Fprintf(os.Stderr, "registered protocols: %s\n",
			strings.Join(drivers.Names(), ", "))
		if !*list {
			// No experiment named: usage error.
			return 2
		}
		return 0
	}

	all := *expID == "all"
	selected := registry()
	switch e, ok := lookupExperiment(*expID); {
	case all && o.sharded():
		// Shard state (slice selection, checkpoint frontier, shard-out) is
		// per campaign; "all" runs many.
		fmt.Fprintln(os.Stderr, "jtpsim: -shard/-shard-out/-checkpoint need a single -exp, not 'all'")
		return 2
	case all:
	case !ok:
		fmt.Fprintf(os.Stderr, "jtpsim: unknown experiment %q (try -list)\n", *expID)
		return 2
	default:
		selected = []experiment{e}
	}

	opt, ctx, stop, err := o.start()
	defer stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "jtpsim: %v\n", err)
		return 1
	}
	for _, e := range selected {
		if all {
			fmt.Printf("==== %s: %s ====\n", e.id, e.desc)
		}
		f := e.figure(*scale, *seed)
		rep, err := f.Report(ctx, opt)
		switch {
		case err != nil && rep != nil && ctx.Err() != nil:
			o.cancelled("jtpsim", err, rep, f.Matrix.NumRuns())
			return 1
		case err != nil:
			fmt.Fprintf(os.Stderr, "jtpsim: %v\n", err)
			return 1
		}
		o.show(f.Tables(rep)...)
		if all {
			fmt.Println()
		}
	}
	return 0
}

// batchMain runs a user-declared scenario matrix: jtpsim batch -matrix
// file.json [-par N] [-runs N] [-seconds S] [-csv|-json] [-v].
func batchMain(args []string) int {
	var (
		o  options
		bf batchFlags
	)
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	bf.register(fs)
	asJSON := fs.Bool("json", false, "emit the aggregate report as JSON")
	fs.BoolVar(&o.verbose, "v", false, "log each completed run to stderr")
	o.campaignFlags(fs)
	if !parseArgs(fs, "jtpsim batch", args) {
		return 2
	}

	if bf.matrix == "" {
		fmt.Fprintln(os.Stderr, "jtpsim batch: -matrix <file.json> is required")
		fs.SetOutput(os.Stderr)
		fs.PrintDefaults()
		fmt.Fprintf(os.Stderr, "matrix \"protocols\" accepts any registered driver: %s\n",
			strings.Join(drivers.Names(), ", "))
		return 2
	}
	spec, err := bf.load()
	if err != nil {
		fmt.Fprintf(os.Stderr, "jtpsim batch: %v\n", err)
		return 1
	}

	m := spec.Matrix()
	o.runs = m.NumRuns()
	opt, ctx, stop, err := o.start()
	defer stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "jtpsim batch: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "jtpsim batch: %s: %d cells × %d runs = %d simulations\n",
		spec.Name, m.NumCells(), spec.Runs, m.NumRuns())
	if opt.Shard.Enabled() {
		lo, hi := opt.Shard.CellRange(m.NumCells())
		fmt.Fprintf(os.Stderr, "jtpsim batch: shard %s: cells [%d,%d), %d simulations\n",
			opt.Shard, lo, hi, (hi-lo)*spec.Runs)
	}
	// On cancellation the partial report is still emitted, after the
	// final checkpoint write.
	rep, err := spec.Execute(ctx, opt)
	if err != nil && rep == nil {
		// Pre-execution failure (bad spec, unresumable checkpoint, ...).
		fmt.Fprintf(os.Stderr, "jtpsim batch: %v\n", err)
		return 1
	}
	if err != nil {
		o.cancelled("jtpsim batch", err, rep, m.NumRuns())
	}

	switch {
	case *asJSON:
		js, jerr := rep.JSON()
		if jerr != nil {
			fmt.Fprintf(os.Stderr, "jtpsim batch: %v\n", jerr)
			return 1
		}
		fmt.Println(string(js))
	case o.csv:
		fmt.Print(rep.CSV())
	default:
		// No observable list: render every observable the cells report
		// (energy, goodput, cache hits, rtx, drops, ...).
		o.show(rep.Table(fmt.Sprintf("campaign %s (%d runs, %d failures)", rep.Name, rep.Runs, rep.Failures)))
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

// batchFlags pick a batch campaign: the matrix file and its overrides.
// batch runs the spec they load; coord hands that spec's Matrix to the
// coordinator and passes the same flags to its workers.
type batchFlags struct {
	matrix  string
	runs    int
	seconds float64
	seed    int64
}

func (b *batchFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&b.matrix, "matrix", "", "path to the JSON scenario matrix")
	fs.IntVar(&b.runs, "runs", 0, "override the spec's runs per cell")
	fs.Float64Var(&b.seconds, "seconds", 0, "override the spec's virtual run length")
	fs.Int64Var(&b.seed, "seed", 0, "override the campaign's base seed")
}

// load reads and validates the matrix file and applies the overrides.
func (b *batchFlags) load() (*experiments.BatchSpec, error) {
	data, err := os.ReadFile(b.matrix)
	if err != nil {
		return nil, err
	}
	spec, err := experiments.ParseBatchSpec(data)
	if err != nil {
		return nil, err
	}
	if b.runs > 0 {
		spec.Runs = b.runs
	}
	if b.seconds > 0 {
		spec.Seconds = b.seconds
	}
	if b.seed != 0 {
		spec.Seed = b.seed
	}
	return spec, nil
}

func registry() []experiment {
	exps := []experiment{
		{id: "table1", desc: "default parameter values", figure: func(float64, int64) experiments.Figure {
			return experiments.Table1()
		}},
		{id: "fig3", desc: "adjustable reliability: energy & data delivered (jtp0/10/20)", figure: func(s float64, seed int64) experiments.Figure {
			cfg := experiments.Fig3Defaults(s)
			seeded(&cfg.Seed, seed)
			return experiments.Fig3(cfg)
		}},
		{id: "fig3c", desc: "per-packet link-layer attempt budget at a mid-path node", figure: func(s float64, seed int64) experiments.Figure {
			cfg := experiments.Fig3cDefaults(s)
			seeded(&cfg.Seed, seed)
			return experiments.Fig3c(cfg)
		}},
		{id: "fig4", desc: "in-network caching gain: JTP vs JNC", figure: func(s float64, seed int64) experiments.Figure {
			cfg := experiments.Fig4Defaults(s)
			seeded(&cfg.Seed, seed)
			return experiments.Fig4(cfg)
		}},
		{id: "fig5", desc: "source back-off fairness for locally recovered packets", figure: func(s float64, seed int64) experiments.Figure {
			cfg := experiments.Fig5Defaults(s)
			seeded(&cfg.Seed, seed)
			return experiments.Fig5(cfg)
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
		{id: "fig8", desc: "PI2/MD rate adaptation of two competing flows", figure: func(s float64, seed int64) experiments.Figure {
			cfg := experiments.Fig8Defaults(s)
			seeded(&cfg.Seed, seed)
			return experiments.Fig8(cfg)
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
