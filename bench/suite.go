package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// benchDir is the benchmark's directory under the repo root, buildDir
// where everything built or left behind by a run goes (in .gitignore).
const (
	benchDir = "bench"
	buildDir = ".bench_build"
)

type config struct {
	root     string
	seed     int64
	smoke    bool
	par      int
	selected []*workload
	// seconds, when > 0, is the contract's --seconds: measure each
	// selected workload for that long. Otherwise reps repetitions run,
	// interleaved round-robin across the workloads so a slow spell on the
	// shared host spreads evenly.
	seconds  float64
	reps     int
	setups   int
	untraced bool
	traced   bool
}

// campaignRun is one execution of a workload's matrix by the program.
type campaignRun struct {
	procResult
	ok     bool
	detail string
	csv    []byte
}

// state is what the harness accumulates per workload.
type state struct {
	w      *workload
	matrix matrixSpec
	spec   string // matrix file of the current set-up
	res    *workloadResult
	// own are the timed repetitions through the workload's own
	// invocation: the only source of end-to-end numbers.
	own []campaignRun
	// plain and tracedRuns are `jtpsim batch` on the same matrix without
	// and with -telemetry/-cpuprofile. For a batch workload plain is own.
	plain      []campaignRun
	tracedRuns []campaignRun
	restarts   float64
	coordDir   string // the last coordinator -out directory, kept for inspection
	layer      map[string]float64
}

type harness struct {
	cfg config
	ctx context.Context
	tr  *tracer
	env []string // scrubbed environment for every child

	work   string // temp dir of the current set-up
	jtpsim string
	layers string // "" when the probe program did not build
	seq    int

	states  []*state
	setupsS []float64
	res     *result
}

func newHarness(ctx context.Context, cfg config) (*harness, error) {
	build, err := filepath.Abs(filepath.Join(cfg.root, buildDir))
	if err != nil {
		return nil, err
	}
	for _, d := range []string{"gocache", "tmp"} {
		if err := os.MkdirAll(filepath.Join(build, d), 0o755); err != nil {
			return nil, fmt.Errorf("creating build directory: %w", err)
		}
	}
	h := &harness{cfg: cfg, ctx: ctx, tr: newTracer()}
	// Caches and temporary files stay inside the checkout.
	h.env = scrubbedEnv(
		"GOCACHE="+filepath.Join(build, "gocache"),
		"GOTMPDIR="+filepath.Join(build, "tmp"),
		"TMPDIR="+filepath.Join(build, "tmp"),
		"GOTOOLCHAIN=local",
	)
	h.res = &result{Schema: 1, Smoke: cfg.smoke, Machine: recordMachine(ctx, cfg.root, cfg.par, cfg.seed)}
	for _, w := range cfg.selected {
		st := &state{w: w, layer: map[string]float64{}}
		st.res = &workloadResult{Name: w.Name}
		h.states = append(h.states, st)
		h.res.Workloads = append(h.res.Workloads, st.res)
	}
	return h, nil
}

// cleanup removes the temp dir of the last set-up.
func (h *harness) cleanup() {
	if h.work != "" {
		os.RemoveAll(h.work)
		h.work = ""
	}
}

// setup builds the program and the probe program into a fresh temp dir,
// generates the matrix files from the seed and runs each selected
// workload once at one run per cell through its own invocation. It is
// what a user pays before the first measured campaign.
func (h *harness) setup(i int) error {
	id := h.tr.start(0, fmt.Sprintf("setup[%d]", i), "")
	defer h.tr.end(id)
	start := time.Now()
	h.cleanup()
	work, err := os.MkdirTemp(filepath.Join(h.cfg.root, buildDir, "tmp"), "run-")
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if h.work, err = filepath.Abs(work); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}

	h.jtpsim = filepath.Join(h.work, "jtpsim")
	sp := h.tr.start(id, "go build ./cmd/jtpsim", "")
	res, err := runProc(h.ctx, h.cfg.root, h.env, "go", "build", "-o", h.jtpsim, "./cmd/jtpsim")
	h.tr.end(sp)
	if err != nil || res.ExitCode != 0 {
		return fmt.Errorf("set-up: building jtpsim failed (exit %d, %v): %s", res.ExitCode, err, tail(res.Stderr))
	}

	// The probe program is the only importer of internal packages. If a
	// later API change breaks it, the end-to-end arm carries on without.
	h.layers = filepath.Join(h.work, "layers")
	sp = h.tr.start(id, "go build ./layers", "")
	res, err = runProc(h.ctx, filepath.Join(h.cfg.root, benchDir), h.env, "go", "build", "-o", h.layers, "./layers")
	h.tr.end(sp)
	if err != nil || res.ExitCode != 0 {
		fmt.Fprintf(os.Stderr, "bench: bench/layers did not build; probe metrics are reported as %d: %s\n", unavailable, tail(res.Stderr))
		h.layers = ""
	}

	for _, st := range h.states {
		if st.spec, st.matrix, err = st.w.writeSpec(h.work, h.cfg.seed, h.cfg.smoke); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		st.res.Sims = st.matrix.cells() * st.matrix.Runs
		sp := h.tr.start(id, "warm-up", st.w.Name)
		run := h.campaign(st, st.w.Coord, false, "-runs", "1")
		h.tr.end(sp)
		if !run.ok {
			return fmt.Errorf("set-up: warm-up of %s failed: %s", st.w.Name, run.detail)
		}
	}
	h.setupsS = append(h.setupsS, time.Since(start).Seconds())
	return nil
}

var restartsRE = regexp.MustCompile(`shard_restarts=(\d+)`)

// campaign runs the workload's matrix once: through the coordinator or
// plain batch, with or without the tracing flags. extra is appended to
// the command line (the warm-up's -runs 1).
func (h *harness) campaign(st *state, coord, traced bool, extra ...string) campaignRun {
	h.seq++
	par := strconv.Itoa(h.cfg.par)
	var args []string
	if coord {
		if st.coordDir != "" {
			os.RemoveAll(st.coordDir)
		}
		st.coordDir = filepath.Join(h.work, fmt.Sprintf("coord-%s-%d", st.w.Name, h.seq))
		args = []string{"coord", "-matrix", st.spec, "-shards", strconv.Itoa(coordShards),
			"-workers", par, "-par", "1", "-out", st.coordDir, "-csv", "-q"}
	} else {
		args = []string{"batch", "-matrix", st.spec, "-csv", "-par", par}
	}
	if traced {
		args = append(args, "-telemetry", h.telemetryPath(st), "-cpuprofile", h.profilePath(st))
	}
	args = append(args, extra...)

	res, err := runProc(h.ctx, h.work, h.env, h.jtpsim, args...)
	run := campaignRun{procResult: res, csv: res.Stdout}
	cells := st.matrix.cells()
	switch {
	case err != nil:
		run.detail = err.Error()
	case res.ExitCode != 0:
		run.detail = fmt.Sprintf("exit %d: %s", res.ExitCode, tail(res.Stderr))
	case bytes.Count(res.Stdout, []byte("\n")) != cells+1:
		run.detail = fmt.Sprintf("CSV has %d lines, want header + %d cells", bytes.Count(res.Stdout, []byte("\n")), cells)
	default:
		run.ok = true
	}
	if coord && run.ok {
		m := restartsRE.FindSubmatch(res.Stderr)
		if m == nil {
			run.ok, run.detail = false, "coordinator summary has no shard_restarts counter"
		} else {
			n, _ := strconv.ParseFloat(string(m[1]), 64)
			st.restarts += n
		}
	}
	return run
}

func (h *harness) telemetryPath(st *state) string {
	return filepath.Join(h.work, st.w.Name+".telemetry.jsonl")
}

func (h *harness) profilePath(st *state) string {
	return filepath.Join(h.work, st.w.Name+".cpu.prof")
}

// rep is one timed repetition through the workload's own invocation.
func (h *harness) rep(st *state) {
	id := h.tr.start(0, fmt.Sprintf("rep[%d]", len(st.own)), st.w.Name)
	run := h.campaign(st, st.w.Coord, false)
	h.tr.end(id)
	st.own = append(st.own, run)
	if !st.w.Coord {
		st.plain = append(st.plain, run)
	}
}

// plainBatch runs the matrix through `jtpsim batch`: the reference a
// coordinator run must reproduce, and the only invocation that accepts
// the tracing flags (coordinator workers do not forward them).
func (h *harness) plainBatch(st *state, traced bool) {
	name := "batch"
	if traced {
		name = "traced"
	}
	id := h.tr.start(0, fmt.Sprintf("%s[%d]", name, len(st.tracedRuns)), st.w.Name)
	run := h.campaign(st, false, traced)
	h.tr.end(id)
	if traced {
		st.tracedRuns = append(st.tracedRuns, run)
	} else {
		st.plain = append(st.plain, run)
	}
}

// measure runs the untraced repetitions.
func (h *harness) measure() {
	for _, st := range h.states {
		if st.w.Coord {
			h.plainBatch(st, false)
		}
	}
	if h.cfg.seconds > 0 {
		for _, st := range h.states {
			start := time.Now()
			for len(st.own) < 3 || time.Since(start).Seconds() < h.cfg.seconds {
				h.rep(st)
			}
		}
		return
	}
	for i := 0; i < h.cfg.reps; i++ {
		for _, st := range h.states {
			h.rep(st)
		}
	}
}

// trace runs the traced phase of one workload in rounds: a repetition
// through the workload's own invocation, for the coordinator workload a
// plain batch run of the same matrix, and a traced plain batch run. Then
// the probe program runs its spans and, for the coordinator workload, the
// shard files are merged once more through the CLI.
func (h *harness) trace(st *state) {
	rounds, budget := 3, 0.6*h.cfg.seconds
	if h.cfg.smoke {
		rounds = 1
	}
	// The runs of one round sit next to each other in time, so their
	// differences cancel most of a slow spell; the overheads below are
	// medians over the rounds.
	var traceOver, coordOver []float64
	start := time.Now()
	for i := 0; i < rounds || time.Since(start).Seconds() < budget; i++ {
		h.rep(st)
		if st.w.Coord {
			h.plainBatch(st, false)
		}
		h.plainBatch(st, true)
		own, plain, traced := last(st.own), last(st.plain), last(st.tracedRuns)
		traceOver = append(traceOver, ratio(traced.Wall-plain.Wall, plain.Wall))
		coordOver = append(coordOver, own.Wall-plain.Wall)
	}

	if tel, err := readTelemetry(h.telemetryPath(st)); err != nil {
		st.res.Checks = append(st.res.Checks, check{Name: "telemetry_readable", Detail: err.Error()})
	} else {
		var m map[string]float64
		m, st.res.RunPercentile = tel.metrics()
		for k, v := range m {
			st.layer[k] = v
		}
		st.res.EventsFired = m["sim.events_fired"]
		st.res.Checks = append(st.res.Checks, check{
			Name: "telemetry_covers_every_run", OK: tel.Runs == st.res.Sims && tel.Errors == 0,
			Detail: fmt.Sprintf("%d lines, %d errors, %d sims", tel.Runs, tel.Errors, st.res.Sims),
		})
	}
	if shares, samples, err := profileMetrics(h.profilePath(st)); err != nil {
		st.res.Checks = append(st.res.Checks, check{Name: "cpuprofile_readable", Detail: err.Error()})
	} else {
		for k, v := range shares {
			st.layer[k] = v
		}
		st.res.Checks = append(st.res.Checks, check{Name: "cpuprofile_readable", OK: true, Detail: fmt.Sprintf("%d samples", samples)})
	}

	st.layer["trace.overhead_share"] = median(traceOver)
	if st.w.Coord {
		st.layer["coordinator.overhead_s"] = median(coordOver)
		st.layer["coordinator.dir_bytes"] = dirBytes(st.coordDir)
		st.layer["coordinator.cli_merge_ms"] = h.cliMerge(st)
		st.layer["coordinator.shard_restarts"] = st.restarts
	}
	h.probe(st)
}

// cliMerge times `jtpsim merge` over the last coordinator run's shard
// files (median of five; 0 when the merge fails, which is also a check).
func (h *harness) cliMerge(st *state) float64 {
	shards, err := filepath.Glob(filepath.Join(st.coordDir, "shard-[0-9]*[0-9].json"))
	if err != nil || len(shards) != coordShards {
		st.res.Checks = append(st.res.Checks, check{Name: "cli_merge", Detail: fmt.Sprintf("found %d shard files, want %d", len(shards), coordShards)})
		return 0
	}
	id := h.tr.start(0, "jtpsim merge", st.w.Name)
	defer h.tr.end(id)
	var ms []float64
	ok, detail := true, ""
	for i := 0; i < 5; i++ {
		res, err := runProc(h.ctx, h.work, h.env, h.jtpsim, append([]string{"merge", "-csv"}, shards...)...)
		if err != nil || res.ExitCode != 0 {
			ok, detail = false, fmt.Sprintf("exit %d, %v: %s", res.ExitCode, err, tail(res.Stderr))
			break
		}
		if len(st.own) > 0 && !bytes.Equal(res.Stdout, st.own[0].csv) {
			ok, detail = false, "merged CSV differs from the coordinator's"
		}
		ms = append(ms, res.Wall*1e3)
	}
	st.res.Checks = append(st.res.Checks, check{Name: "cli_merge", OK: ok, Detail: detail})
	return median(ms)
}

// probeOutput is what bench/layers prints.
type probeOutput struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []struct {
		Name    string  `json:"name"`
		StartMS float64 `json:"start_ms"`
		EndMS   float64 `json:"end_ms"`
	} `json:"spans"`
}

// probe runs bench/layers against the workload's matrix and folds its
// metrics and spans in. Any failure leaves the probe metrics unavailable.
func (h *harness) probe(st *state) {
	for _, d := range perLayer {
		if d.Source == srcS {
			st.layer[d.Name] = unavailable
		}
	}
	if h.layers == "" {
		return
	}
	args := []string{"-spec", st.spec, "-scratch", h.work}
	if h.cfg.smoke {
		args = append(args, "-smoke")
	}
	id := h.tr.start(0, "layers", st.w.Name)
	res, err := runProc(h.ctx, h.work, h.env, h.layers, args...)
	h.tr.end(id)
	var out probeOutput
	if err == nil && res.ExitCode == 0 {
		err = json.Unmarshal(res.Stdout, &out)
	}
	if err != nil || res.ExitCode != 0 {
		fmt.Fprintf(os.Stderr, "bench: bench/layers failed on %s (exit %d, %v); probe metrics are reported as %d: %s\n",
			st.w.Name, res.ExitCode, err, unavailable, tail(res.Stderr))
		return
	}
	for k, v := range out.Metrics {
		if _, known := st.layer[k]; known {
			st.layer[k] = v
		}
	}
	for _, s := range out.Spans {
		h.tr.add(id, s.Name, st.w.Name, s.StartMS, s.EndMS)
	}
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) float64 {
	total := 0.0
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += float64(info.Size())
			}
		}
		return nil
	})
	return total
}

func wallOf(r campaignRun) float64 { return r.Wall }
func cpuOf(r campaignRun) float64  { return r.CPU }
func rssOf(r campaignRun) float64  { return r.RSSMB }

func samplesOf(runs []campaignRun, f func(campaignRun) float64) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = f(r)
	}
	return xs
}

func last(runs []campaignRun) campaignRun { return runs[len(runs)-1] }

// summarize builds a reported value from samples; pick chooses the
// estimator the bounds apply to.
func summarize(xs []float64, unit string, pick func([]float64) float64) value {
	return value{
		Value: pick(xs), Unit: unit,
		Median: median(xs), Min: quantile(xs, 0), Max: quantile(xs, 1), N: len(xs), Samples: xs,
	}
}

func highest(xs []float64) float64 { return quantile(xs, 1) }

// finish turns the accumulated runs into the result: output checks,
// failure accounting, end-to-end values and per-layer values.
func (h *harness) finish() {
	for _, st := range h.states {
		r := st.res
		r.Invocation = "jtpsim batch -csv -par " + strconv.Itoa(h.cfg.par)
		if st.w.Coord {
			r.Invocation = fmt.Sprintf("jtpsim coord -shards %d -workers %d -par 1 -csv -q", coordShards, h.cfg.par)
		}
		// For a batch workload the plain runs are the own runs.
		all := append(append([]campaignRun(nil), st.own...), st.tracedRuns...)
		if st.w.Coord {
			all = append(all, st.plain...)
		}
		r.Attempted = r.Sims * len(all)
		exits := check{Name: "every_run_exits_zero_with_every_cell", OK: true}
		for _, run := range all {
			if !run.ok {
				r.Failed += r.Sims
				exits.OK, exits.Detail = false, run.detail
			}
		}
		r.Checks = append(r.Checks, exits)
		if len(st.own) > 0 {
			sum := sha256.Sum256(st.own[0].csv)
			r.OutputSHA256 = hex.EncodeToString(sum[:])
			r.Checks = append(r.Checks, identical("repetitions_byte_identical", st.own))
		}
		if st.w.Coord && len(st.own) > 0 && len(st.plain) > 0 {
			r.Checks = append(r.Checks,
				identical("coord_equals_plain_batch", []campaignRun{st.own[0], st.plain[0]}),
				check{Name: "shard_restarts_zero", OK: st.restarts == 0, Detail: fmt.Sprintf("%g restarts", st.restarts)})
		}
		if len(st.tracedRuns) > 0 && len(st.plain) > 0 {
			r.Checks = append(r.Checks, identical("traced_equals_untraced", append([]campaignRun{st.plain[0]}, st.tracedRuns...)))
		}
		if st.w.Name == "static_chain" && len(st.own) > 0 {
			r.Checks = append(r.Checks, deliveredPositive(st.own[0].csv))
		}
		for _, c := range r.Checks {
			if !c.OK {
				// A failed output check discredits every run it covers.
				r.Failed = r.Attempted
			}
		}
		r.FailedShare = ratio(float64(r.Failed), float64(r.Attempted))

		if h.cfg.untraced {
			r.EndToEnd = map[string]value{
				// The host's speed drifts over minutes, which moves every
				// repetition of a run alike: fastest, quartile and median
				// spread the same from run to run (README "Sizes and noise"),
				// so the bounds apply to the plain median.
				"wall_s": summarize(samplesOf(st.own, wallOf), "s", median),
				"cpu_s":  summarize(samplesOf(st.own, cpuOf), "s", median),
				// The peak of the peaks: the largest repetition is also the
				// steadiest reading where GC timing moves the resident set.
				"peak_rss_mb": summarize(samplesOf(st.own, rssOf), "MB", highest),
				"setup_s":     summarize(h.setupsS, "s", median),
			}
		}
		if h.cfg.traced {
			r.PerLayer = map[string]value{}
			for _, d := range perLayer {
				r.PerLayer[d.Name] = value{Value: st.layer[d.Name], Unit: d.Unit, Source: d.Source}
			}
		}
	}
}

// identical checks that every run produced the same bytes.
func identical(name string, runs []campaignRun) check {
	for i, run := range runs[1:] {
		if !bytes.Equal(run.csv, runs[0].csv) {
			return check{Name: name, Detail: fmt.Sprintf("output %d differs from output 0 (%d vs %d bytes)", i+1, len(run.csv), len(runs[0].csv))}
		}
	}
	return check{Name: name, OK: true, Detail: fmt.Sprintf("%d outputs", len(runs))}
}

// deliveredPositive checks that every cell of a report delivered data.
func deliveredPositive(data []byte) check {
	const name = "every_cell_delivered_kB_positive"
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil || len(rows) < 2 {
		return check{Name: name, Detail: fmt.Sprintf("unreadable CSV: %v", err)}
	}
	col := -1
	for i, h := range rows[0] {
		if h == "delivered_kB" {
			col = i
		}
	}
	if col < 0 {
		return check{Name: name, Detail: "no delivered_kB column"}
	}
	for _, row := range rows[1:] {
		if v, err := strconv.ParseFloat(row[col], 64); err != nil || v <= 0 {
			return check{Name: name, Detail: fmt.Sprintf("cell %s delivered %q kB", strings.Join(row[:col], ","), row[col])}
		}
	}
	return check{Name: name, OK: true, Detail: fmt.Sprintf("%d cells", len(rows)-1)}
}

// run executes the whole plan and leaves the result in h.res. The
// caller removes the last set-up's temp dir with cleanup.
func (h *harness) run() error {
	for i := 0; i < h.cfg.setups; i++ {
		if err := h.setup(i); err != nil {
			return err
		}
	}
	if h.cfg.untraced {
		h.measure()
	}
	if h.cfg.traced {
		for _, st := range h.states {
			h.trace(st)
		}
	}
	h.finish()
	return nil
}
