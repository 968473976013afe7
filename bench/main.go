// Command bench is the one benchmark of jtpsim (see README.md in this
// directory and BENCHMARK.json at the repo root). It builds ./cmd/jtpsim,
// generates four campaign matrices from a seed, drives the built binary
// as a subprocess — one campaign at a time, nothing else running — and
// reports end-to-end wall time, CPU time and peak memory per workload,
// plus per-layer metrics gathered from outside the program: its
// -telemetry and -cpuprofile outputs and the probe program bench/layers.
//
//	go run -C bench . -seed 1                 # all four workloads, full report
//	go run -C bench . -seed 1 -record         # ... and append to bench/history.jsonl
//	go run -C bench . -compare a.json b.json  # apply the bounds to two results
//	go run -C bench . --workload static_chain --seed 7 --seconds 20 --trace 0
//
// The last form is the contract BENCHMARK.json describes: one workload,
// and as the last line of standard output one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
// The driver imports nothing from the module it measures: it talks to
// the built binary only, so a refactor cannot take wall_s down with it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// fullReps is the number of timed repetitions per workload of a full
// run, interleaved round-robin across the workloads.
const fullReps = 5

func main() {
	os.Exit(mainCode())
}

func mainCode() int {
	var (
		workloadName = flag.String("workload", "", "run only this workload and print the contract's JSON line (needs -trace)")
		seed         = flag.Int64("seed", 1, "benchmark seed: the base seed of every generated campaign matrix")
		seconds      = flag.Float64("seconds", 0, "with -workload: measure for this many seconds")
		traceMode    = flag.Int("trace", -1, "with -workload: 0 = untraced repetitions and end-to-end metrics, 1 = traced run and per-layer metrics")
		smoke        = flag.Bool("smoke", false, "same four shapes at a few runs each, one repetition; for the test, refused by -record")
		record       = flag.Bool("record", false, "append this result to bench/history.jsonl")
		out          = flag.String("out", "", "result file (default bench/out/result.json)")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: usage: -compare a.json b.json")
			return 2
		}
		code, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		return code
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	cfg := config{
		root: root, seed: *seed, smoke: *smoke,
		par:      defaultPar(),
		selected: workloads, reps: fullReps, setups: 3,
		untraced: true, traced: true,
	}
	contract := *workloadName != ""
	if contract {
		w := workloadByName(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		if *traceMode != 0 && *traceMode != 1 {
			fmt.Fprintln(os.Stderr, "bench: -workload needs -trace 0 or -trace 1")
			return 2
		}
		cfg.selected = []*workload{w}
		cfg.seconds = *seconds
		cfg.untraced, cfg.traced = *traceMode == 0, *traceMode == 1
		if cfg.traced {
			// setup_s is an end-to-end metric; a traced run sets up once.
			cfg.setups = 1
		}
	}
	if cfg.smoke {
		cfg.reps, cfg.setups, cfg.seconds = 1, 1, 0
	}
	if *record && (cfg.smoke || contract) {
		fmt.Fprintln(os.Stderr, "bench: -record takes a full run of all four workloads, not -smoke or -workload")
		return 2
	}

	// An interrupt cancels the running child (and its process group).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	h, err := newHarness(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer h.cleanup()
	if err := h.run(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	printReport(os.Stdout, h.res)

	outDir := filepath.Join(root, benchDir, "out")
	if *out == "" {
		*out = filepath.Join(outDir, "result.json")
	}
	if err := writeJSON(*out, h.res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if err := writeJSON(filepath.Join(outDir, "trace.json"), h.tr.finish()); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if *record {
		if err := appendHistory(root, h.res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if contract {
		line, err := contractLine(h.res.Workloads[0], cfg.traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		// The line carries the verdict; the exit code says it was printed.
		fmt.Println(line)
		return 0
	}
	if !h.res.correct() {
		return 1
	}
	return 0
}

// findRoot locates the repo root: the working directory when run as
// `go run ./bench`-style from the root, its parent when run with
// `go run -C bench .`.
func findRoot() (string, error) {
	for _, c := range []string{".", ".."} {
		if st, err := os.Stat(filepath.Join(c, "cmd", "jtpsim")); err == nil && st.IsDir() {
			return filepath.Abs(c)
		}
	}
	return "", fmt.Errorf("no ./cmd/jtpsim here or one level up: run from the repo root or with `go run -C bench .`")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// contractLine is the last line of a -workload run: exactly the keys the
// contract names. A correct run never fails an operation, so a failed
// output check makes correct false and failed equal attempted.
func contractLine(w *workloadResult, traced bool) (string, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := w.EndToEnd
	if traced {
		src = w.PerLayer
	}
	metrics := map[string]metric{}
	for name, v := range src {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return "", fmt.Errorf("metric %s of %s is not finite", name, w.Name)
		}
		metrics[name] = metric{Value: v.Value, Unit: v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{w.Failed == 0, w.Attempted, w.Failed, metrics})
	return string(line), err
}

// printReport prints every metric by name with its unit.
func printReport(out *os.File, res *result) {
	m := res.Machine
	fmt.Fprintf(out, "jtpsim benchmark: commit %s, %s/%s, %s, %d CPUs, GOMAXPROCS %d, -par/-workers %d, seed %d, spin %.1f ms\n",
		m.Commit, m.GoOS, m.GoArch, m.GoVersion, m.NumCPU, m.GoMaxProcs, m.Par, m.Seed, m.SpinMS)
	fmt.Fprintln(out, "the model is NOT validated by this benchmark: it checks that outputs are deterministic and sane, not that they are right")
	if res.Smoke {
		fmt.Fprintln(out, "SMOKE sizes: not the benchmark's numbers")
	}
	for _, w := range res.Workloads {
		fmt.Fprintf(out, "\n== %s: %s, %d sims", w.Name, w.Invocation, w.Sims)
		if w.EventsFired > 0 {
			fmt.Fprintf(out, ", %.0f events", w.EventsFired)
		}
		fmt.Fprintf(out, "\n   output_sha256 %s\n", w.OutputSHA256)
		fmt.Fprintf(out, "   failed_share %g (%d of %d runs)\n", w.FailedShare, w.Failed, w.Attempted)
		for _, c := range w.Checks {
			verdict := "ok  "
			if !c.OK {
				verdict = "FAIL"
			}
			fmt.Fprintf(out, "   check %s %s %s\n", verdict, c.Name, c.Detail)
		}
		for _, d := range endToEnd {
			if v, ok := w.EndToEnd[d.Name]; ok {
				fmt.Fprintf(out, "   %-32s %12.4f %-6s median %.4f min %.4f max %.4f n=%d [bound %g%%]\n",
					d.Name, v.Value, v.Unit, v.Median, v.Min, v.Max, v.N, d.Bound*100)
			}
		}
		if w.RunPercentile != nil {
			fmt.Fprintf(out, "   experiments.run_ms_phi: phi = %.3f over n = %d runs\n", w.RunPercentile.Phi, w.RunPercentile.N)
		}
		for _, d := range perLayer {
			if v, ok := w.PerLayer[d.Name]; ok {
				fmt.Fprintf(out, "   %-32s %16.6g %-6s %s\n", d.Name, v.Value, v.Unit, v.Source)
			}
		}
	}
}
