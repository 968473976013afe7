package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/javelen/jtp/internal/experiments"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/node"
	"github.com/javelen/jtp/internal/trace"
	"github.com/javelen/jtp/internal/workload"
)

// genMain implements `jtpsim gen`: expand a declarative workload spec
// into a fully concrete scenario at a seed and dump it as deterministic
// JSON for inspection — or run it (-run), or replay a previous dump
// byte-exactly (-replay). The same seed and spec always produce the
// same scenario, so a dump is a complete reproduction recipe.
//
//	jtpsim gen -family rgg -nodes 20 -seed 7          # dump JSON
//	jtpsim gen -spec wl.json -seed 7 -run -proto tcp  # generate + run
//	jtpsim gen -replay dump.json -proto jtp           # run a dump
func genMain(args []string) int {
	var o options
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var (
		specPath = fs.String("spec", "", "workload spec JSON file (alternative to the inline flags)")
		replay   = fs.String("replay", "", "run a previously dumped generated scenario file")
		family   = fs.String("family", "", "inline spec: topology family ("+strings.Join(workload.Families(), "/")+")")
		nodes    = fs.Int("nodes", 0, "inline spec: node count")
		traffic  = fs.String("traffic", "", "inline spec: traffic pattern ("+strings.Join(workload.Patterns(), "/")+")")
		flows    = fs.Int("flows", 0, "inline spec: number of flows")
		packets  = fs.Int("packets", 0, "inline spec: packets per flow (0 = unbounded stream)")
		lossTol  = fs.Float64("losstol", 0, "inline spec: per-flow loss tolerance [0,1)")
		seconds  = fs.Float64("seconds", 0, "inline spec: run length in virtual seconds")
		seed     = fs.Int64("seed", 1, "generation seed (doubles as the run seed)")
		run      = fs.Bool("run", false, "run the generated scenario instead of dumping JSON")
		proto    = fs.String("proto", "jtp", "transport driver for -run/-replay (see -list)")
		tracePth = fs.String("trace", "", "with -run/-replay: write the packet-event trace as JSON lines to this file")
	)
	o.profileFlags(fs)
	fs.Parse(args)
	defer o.stopProfiles()
	if err := o.startProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "jtpsim gen: %v\n", err)
		return 1
	}

	var g *workload.Generated
	switch {
	case *replay != "":
		data, err := os.ReadFile(*replay)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jtpsim gen: %v\n", err)
			return 1
		}
		g, err = workload.ParseGenerated(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jtpsim gen: %v\n", err)
			return 1
		}
		*run = true
	default:
		var spec *workload.Spec
		if *specPath != "" {
			data, err := os.ReadFile(*specPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "jtpsim gen: %v\n", err)
				return 1
			}
			spec, err = workload.ParseSpec(data)
			if err != nil {
				fmt.Fprintf(os.Stderr, "jtpsim gen: %v\n", err)
				return 1
			}
		} else {
			spec = &workload.Spec{
				Family:        *family,
				Nodes:         *nodes,
				Traffic:       *traffic,
				Flows:         *flows,
				TotalPackets:  *packets,
				LossTolerance: *lossTol,
				Seconds:       *seconds,
			}
			spec.ApplyDefaults()
		}
		var err error
		g, err = workload.Generate(spec, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jtpsim gen: %v\n", err)
			return 1
		}
	}

	if !*run {
		js, err := g.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "jtpsim gen: %v\n", err)
			return 1
		}
		fmt.Println(string(js))
		return 0
	}

	// With -trace, install a bounded ring tracer on the network and dump
	// it as JSONL after the run (see trace.Tracer.WriteJSON).
	var tr *trace.Tracer
	hooks := experiments.Hooks{}
	if *tracePth != "" {
		hooks.Network = func(nw *node.Network) {
			tr = trace.New(1 << 16)
			nw.Tracer = tr
		}
	}
	rec, err := experiments.RunWithHooks(experiments.FromWorkload(g, experiments.Protocol(*proto)), hooks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jtpsim gen: %v\n", err)
		return 1
	}
	if tr != nil {
		f, err := os.Create(*tracePth)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jtpsim gen: %v\n", err)
			return 1
		}
		werr := tr.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "jtpsim gen: trace: %v\n", werr)
			return 1
		}
		fmt.Fprintf(os.Stderr, "jtpsim gen: wrote trace %s (%d events retained, %d recorded)\n",
			*tracePth, tr.Len(), tr.Total())
	}
	o.show(genTable(g, rec))
	fmt.Printf("\ntotal energy %.4g J, %.4g uJ/bit", rec.TotalEnergy, rec.EnergyPerBit()*1e6)
	if rec.EnergyBudgets != nil {
		fmt.Printf(", %d/%d nodes battery-dead", rec.BudgetDeadNodes, rec.Nodes)
	}
	fmt.Println()
	return 0
}

// genTable renders a generated scenario's per-flow outcome.
func genTable(g *workload.Generated, rec *metrics.RunRecord) *metrics.Table {
	tbl := metrics.NewTable(
		fmt.Sprintf("workload %s (%s/%s, %d nodes, %.0fs, %s)",
			g.Name, g.Family, g.Traffic, rec.Nodes, rec.Seconds, rec.Proto),
		"flow", "src", "dst", "startAt", "delivered", "kB", "goodput kbps", "rtx", "done")
	for _, f := range rec.Flows {
		tbl.AddRow(int(f.Flow), int(f.Src), int(f.Dst), f.StartAt,
			int(f.UniqueDelivered), float64(f.DeliveredBytes)/1e3,
			f.GoodputBps(rec.Seconds)/1e3, int(f.SourceRetransmissions), f.Completed)
	}
	return tbl
}
