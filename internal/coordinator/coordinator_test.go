package coordinator

// Integration tests for the supervised worker pool, using the standard
// helper-process pattern: the coordinator under test launches this test
// binary (os.Args[0]) re-entrantly, and TestHelperWorker — a real tiny
// campaign honoring the -shard/-shard-out/-checkpoint/-checkpoint-interval
// contract — plays the worker. Fault injection rides environment
// variables:
//
//	COORD_HELPER_CRASH_AT=SEQ    crash (exit 3) at fold seq, once per shard
//	COORD_HELPER_FAIL_SHARD=I    shard I crashes on sight, every attempt
//	COORD_HELPER_HANG_SHARD=I    shard I hangs after one fold, once
//	COORD_HELPER_SLOW_MS=MS      each run sleeps MS more, and checkpoints
//	                             follow -checkpoint-interval alone
//
// Everything is checked against the ground truth an in-process unsharded
// campaign.Execute produces: whatever the coordinator survives, the
// merged report must be byte-identical to that.

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/javelen/jtp/internal/campaign"
)

// helperMatrix is the campaign both the helper workers and the
// in-process reference execute: 8 cells × 4 runs, seed-derived samples.
func helperMatrix() campaign.Matrix {
	return campaign.Matrix{
		Name: "coordtest",
		Axes: []campaign.Axis{
			{Name: "proto", Values: campaign.Strings("jtp", "atp")},
			{Name: "nodes", Values: campaign.Ints(2, 4, 6, 8)},
		},
		Runs:     4,
		BaseSeed: 77,
	}
}

// helperRun derives observables from the spec seed only, with a small
// sleep so supervision (ticks, kills, cancellation) can interleave.
func helperRun(_ context.Context, spec campaign.RunSpec) (campaign.Sample, error) {
	r := rand.New(rand.NewSource(spec.Seed))
	time.Sleep(time.Duration(2+r.Intn(3)) * time.Millisecond)
	return campaign.Sample{
		"energy":  r.Float64() * 1e-6,
		"goodput": 1e3 + r.Float64()*1e4,
	}, nil
}

// referenceCSV is the unsharded ground truth.
func referenceCSV(t *testing.T) string {
	t.Helper()
	rep, err := campaign.Execute(context.Background(), helperMatrix(), campaign.Options{Workers: 2}, helperRun)
	if err != nil {
		t.Fatal(err)
	}
	return rep.CSV()
}

// TestHelperWorker is not a test: it is the worker process body. The
// coordinator tests exec this binary with -test.run=TestHelperWorker --
// <shard flags>, and COORD_HELPER=1 gates the body so a normal `go test`
// run skips it.
func TestHelperWorker(t *testing.T) {
	if os.Getenv("COORD_HELPER") != "1" {
		t.Skip("helper process body, not a test")
	}
	os.Exit(helperWorkerMain(flag.Args()))
}

func helperWorkerMain(args []string) int {
	fs := flag.NewFlagSet("helper", flag.ExitOnError)
	shardStr := fs.String("shard", "0/1", "")
	shardOut := fs.String("shard-out", "", "")
	checkpoint := fs.String("checkpoint", "", "")
	ckInterval := fs.Duration("checkpoint-interval", 0, "")
	fs.Parse(args)

	sh, err := campaign.ParseShard(*shardStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if v := os.Getenv("COORD_HELPER_FAIL_SHARD"); v != "" {
		if i, _ := strconv.Atoi(v); i == sh.Index {
			return ChaosExitCode // permanent: crashes every attempt
		}
	}
	crashAt := -1
	if v := os.Getenv("COORD_HELPER_CRASH_AT"); v != "" {
		crashAt, _ = strconv.Atoi(v)
	}
	hangShard := -1
	if v := os.Getenv("COORD_HELPER_HANG_SHARD"); v != "" {
		hangShard, _ = strconv.Atoi(v)
	}
	run, ckEvery := helperRun, 1 // tight frontier: a crash loses at most one fold
	if v := os.Getenv("COORD_HELPER_SLOW_MS"); v != "" {
		ms, _ := strconv.Atoi(v)
		run = func(ctx context.Context, spec campaign.RunSpec) (campaign.Sample, error) {
			time.Sleep(time.Duration(ms) * time.Millisecond)
			return helperRun(ctx, spec)
		}
		ckEvery = 0
	}

	opt := campaign.Options{
		Workers:            1,
		Shard:              sh,
		ShardOut:           *shardOut,
		Checkpoint:         *checkpoint,
		CheckpointEvery:    ckEvery,
		CheckpointInterval: *ckInterval,
		OnProgress: func(p campaign.Progress) {
			if crashAt >= 0 && p.Done >= crashAt && stampOnce(*shardOut+".crashed") {
				os.Exit(ChaosExitCode)
			}
			if hangShard == sh.Index && stampOnce(*shardOut+".hung") {
				time.Sleep(30 * time.Second) // until the stall detector kills us
			}
		},
	}
	if _, err := campaign.Execute(context.Background(), helperMatrix(), opt, run); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// stampOnce attempts to create the stamp file exclusively: true exactly
// once per path, so injected faults fire on one attempt only.
func stampOnce(path string) bool {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return false
	}
	f.Close()
	return true
}

// newTestCoordinator builds a fast-supervision coordinator over helper
// workers; extra env vars select the injected faults.
func newTestCoordinator(t *testing.T, dir string, shards, workers int, env ...string) *Coordinator {
	t.Helper()
	cfg := Config{
		WorkerBin:          os.Args[0],
		WorkerArgs:         []string{"-test.run=TestHelperWorker", "--"},
		Matrix:             helperMatrix(),
		Shards:             shards,
		Workers:            workers,
		OutDir:             dir,
		RetryBudget:        3,
		BackoffBase:        10 * time.Millisecond,
		BackoffMax:         100 * time.Millisecond,
		CheckpointInterval: 100 * time.Millisecond,
		StallTimeout:       5 * time.Second,
		Poll:               20 * time.Millisecond,
		ChaosSeed:          42,
		Env:                append([]string{"COORD_HELPER=1"}, env...),
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCoordinatorAllDone(t *testing.T) {
	dir := t.TempDir()
	c := newTestCoordinator(t, dir, 4, 2)
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Done) != 4 || res.Degraded() || len(res.Interrupted) != 0 {
		t.Fatalf("done=%v failed=%v interrupted=%v", res.Done, res.Failed, res.Interrupted)
	}
	if res.Gaps != nil {
		t.Fatalf("complete run reported gaps: %+v", res.Gaps)
	}
	if got, want := res.Report.CSV(), referenceCSV(t); got != want {
		t.Errorf("merged CSV differs from unsharded run:\n got: %s\nwant: %s", got, want)
	}
	snap := c.Snapshot()
	if snap.Done != 4 || snap.Running != 0 {
		t.Errorf("snapshot %+v, want 4 done", snap)
	}
	for _, st := range snap.Shards {
		if st.CheckpointAgeMs != 0 {
			t.Errorf("done shard %d has checkpoint age %d ms, want none", st.Index, st.CheckpointAgeMs)
		}
	}
	if _, ok := snap.Counters["coord_checkpoint_age_ms_hwm"]; !ok {
		t.Errorf("snapshot counters %v lack coord_checkpoint_age_ms_hwm", snap.Counters)
	}
	// The out-dir holds each shard's result, checkpoint and log, and
	// nothing else.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	var want []string
	for i := range 4 {
		want = append(want, fmt.Sprintf("shard-%03d.ck.json", i), fmt.Sprintf("shard-%03d.json", i), fmt.Sprintf("shard-%03d.log", i))
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("out-dir holds %v, want %v", names, want)
	}
}

// TestCoordinatorCrashRecovery crashes every shard once mid-campaign;
// the restarts must resume from their checkpoints and the merged report
// must still be byte-identical to the unsharded run.
func TestCoordinatorCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	c := newTestCoordinator(t, dir, 4, 4, "COORD_HELPER_CRASH_AT=3")
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Done) != 4 {
		t.Fatalf("done=%v failed=%v", res.Done, res.Failed)
	}
	if got, want := res.Report.CSV(), referenceCSV(t); got != want {
		t.Errorf("merged CSV differs from unsharded run after crash recovery")
	}
	if res.Counters["coord_shard_restarts"] < 4 {
		t.Errorf("restarts = %d, want >= 4 (every shard crashed once)", res.Counters["coord_shard_restarts"])
	}
	if res.Counters["coord_shard_dead_detections"] < 4 {
		t.Errorf("dead detections = %d, want >= 4", res.Counters["coord_shard_dead_detections"])
	}
	if res.Counters["coord_backoff_ms_total"] == 0 {
		t.Errorf("no backoff booked despite restarts")
	}
}

// TestCoordinatorRetryExhaustion makes one shard fail on every attempt:
// the rest must complete, the merge must be partial with exact
// missing-work accounting, and the result must say degraded.
func TestCoordinatorRetryExhaustion(t *testing.T) {
	dir := t.TempDir()
	c := newTestCoordinator(t, dir, 4, 2, "COORD_HELPER_FAIL_SHARD=1")
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded() || len(res.Failed) != 1 || res.Failed[0] != 1 {
		t.Fatalf("failed=%v, want [1]", res.Failed)
	}
	if len(res.Done) != 3 {
		t.Fatalf("done=%v, want 3 shards", res.Done)
	}
	if res.Report == nil || res.Gaps == nil {
		t.Fatal("partial merge missing report or gaps")
	}
	if len(res.Gaps.Missing) != 1 || res.Gaps.Missing[0] != 1 {
		t.Fatalf("gaps.Missing=%v, want [1]", res.Gaps.Missing)
	}
	// Shard 1 of 4 over 8 cells owns cells [2,4): 2 cells × 4 runs.
	if res.Gaps.MissingCells != 2 || res.Gaps.MissingRuns != 8 {
		t.Fatalf("gaps = %d cells / %d runs, want 2/8", res.Gaps.MissingCells, res.Gaps.MissingRuns)
	}
	// The shard consumed its full budget: 1 launch + 3 retries.
	for _, st := range res.Table {
		if st.Index == 1 && st.Attempts != 4 {
			t.Errorf("failed shard attempts = %d, want 4", st.Attempts)
		}
	}
	// Folded cells must match the reference row-for-row where covered.
	if res.Report.Runs != 3*8 {
		t.Errorf("partial report folded %d runs, want 24", res.Report.Runs)
	}
}

// TestCoordinatorStallKill hangs one shard's first attempt: the stall
// detector must SIGKILL it and the restart must complete the campaign.
func TestCoordinatorStallKill(t *testing.T) {
	dir := t.TempDir()
	c := newTestCoordinator(t, dir, 2, 2, "COORD_HELPER_HANG_SHARD=1")
	// Long enough to absorb worker startup (slow under -race), short
	// enough to catch the injected 30s hang quickly.
	c.cfg.StallTimeout = 2 * time.Second
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Done) != 2 {
		t.Fatalf("done=%v failed=%v", res.Done, res.Failed)
	}
	if res.Counters["coord_stall_kills"] == 0 {
		t.Error("stall detector never fired")
	}
	if got, want := res.Report.CSV(), referenceCSV(t); got != want {
		t.Errorf("merged CSV differs from unsharded run after stall recovery")
	}
}

// TestCoordinatorLongCheckpointIntervalIsNoStall runs workers that
// checkpoint once an hour and fold a run every 60 ms: a shard whose
// checkpoint has not come due yet is live, however much longer than
// the stall timeout it runs.
func TestCoordinatorLongCheckpointIntervalIsNoStall(t *testing.T) {
	dir := t.TempDir()
	c := newTestCoordinator(t, dir, 2, 2, "COORD_HELPER_SLOW_MS=60")
	c.cfg.CheckpointInterval = time.Hour
	c.cfg.StallTimeout = 300 * time.Millisecond
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Counters["coord_stall_kills"]; n != 0 {
		t.Errorf("coord_stall_kills = %d, want 0", n)
	}
	if len(res.Done) != 2 {
		t.Fatalf("done=%v failed=%v", res.Done, res.Failed)
	}
	if got, want := res.Report.CSV(), referenceCSV(t); got != want {
		t.Errorf("merged CSV differs from unsharded run")
	}
}

// TestCoordinatorOldCheckpointIsNoStall resumes shards from checkpoints
// last written a day ago: liveness counts from the launch, not from the
// checkpoint's mtime, so a worker resumed from it is not stalled.
func TestCoordinatorOldCheckpointIsNoStall(t *testing.T) {
	dir := t.TempDir()
	c := newTestCoordinator(t, dir, 4, 2)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(60 * time.Millisecond)
		cancel()
	}()
	if _, err := c.Run(ctx); err == nil {
		t.Skip("campaign finished before the cancel landed; nothing to resume")
	}
	old := time.Now().Add(-24 * time.Hour)
	resumed := 0
	for i := 0; i < 4; i++ {
		if err := os.Chtimes(c.checkpointPath(i), old, old); err == nil {
			resumed++
		}
	}
	if resumed == 0 {
		t.Skip("no shard left a checkpoint to resume from")
	}

	c2 := newTestCoordinator(t, dir, 4, 2, "COORD_HELPER_SLOW_MS=20")
	c2.cfg.StallTimeout = 2 * time.Second
	res, err := c2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Counters["coord_stall_kills"]; n != 0 {
		t.Errorf("coord_stall_kills = %d, want 0", n)
	}
	if len(res.Done) != 4 {
		t.Fatalf("resume: done=%v failed=%v", res.Done, res.Failed)
	}
	if got, want := res.Report.CSV(), referenceCSV(t); got != want {
		t.Errorf("merged CSV differs from unsharded run after resume")
	}
}

// TestCoordinatorResumeAfterCancel cancels a run mid-flight, then drives
// a second coordinator over the same out-dir to completion: the out-dir
// must classify the unfinished shards, and the final merge must be
// byte-identical to the unsharded run.
func TestCoordinatorResumeAfterCancel(t *testing.T) {
	dir := t.TempDir()
	c := newTestCoordinator(t, dir, 4, 2)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(60 * time.Millisecond)
		cancel()
	}()
	res, err := c.Run(ctx)
	if err == nil {
		t.Skip("campaign finished before the cancel landed; nothing to resume")
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.Interrupted) == 0 {
		t.Fatalf("no interrupted shards after cancel: done=%v", res.Done)
	}

	c2 := newTestCoordinator(t, dir, 4, 2)
	res2, err := c2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Done) != 4 {
		t.Fatalf("resume: done=%v failed=%v", res2.Done, res2.Failed)
	}
	if got, want := res2.Report.CSV(), referenceCSV(t); got != want {
		t.Errorf("merged CSV differs from unsharded run after cancel+resume")
	}
}

// TestCoordinatorRefusesOtherShardCount reruns a complete out-dir with
// a different shard count: its shard files belong to another split, so
// the coordinator must refuse before launching any worker.
func TestCoordinatorRefusesOtherShardCount(t *testing.T) {
	dir := t.TempDir()
	c := newTestCoordinator(t, dir, 2, 2)
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	requireRefusedBeforeLaunch(t, dir, newTestCoordinator(t, dir, 3, 2))
}

// requireRefusedBeforeLaunch runs c over dir, a complete out-dir of
// another campaign: Run must refuse it naming a different campaign, and
// no worker may launch, so the worker logs stay as they were.
func requireRefusedBeforeLaunch(t *testing.T, dir string, c *Coordinator) {
	t.Helper()
	logs := func() string {
		paths, err := filepath.Glob(filepath.Join(dir, "shard-*.log"))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, p := range paths {
			st, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s:%d ", filepath.Base(p), st.Size())
		}
		return b.String()
	}
	before := logs()
	if _, err := c.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("err = %v, want a refusal naming a different campaign", err)
	}
	if after := logs(); after != before {
		t.Fatalf("worker logs changed from %q to %q: a worker launched", before, after)
	}
}

// TestCoordinatorGarbledShardFile garbles one shard's result file after
// a complete run: the rerun must redo that shard and still converge to
// the byte-identical merged report.
func TestCoordinatorGarbledShardFile(t *testing.T) {
	dir := t.TempDir()
	c := newTestCoordinator(t, dir, 2, 2)
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-001.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := newTestCoordinator(t, dir, 2, 2)
	res, err := c2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Done) != 2 {
		t.Fatalf("done=%v failed=%v", res.Done, res.Failed)
	}
	if got, want := res.Report.CSV(), referenceCSV(t); got != want {
		t.Errorf("merged CSV differs after a garbled shard file")
	}
}

// TestCoordinatorJournalIdentityMismatch refuses to reuse an out-dir
// across campaigns: result files of a matrix with another base seed are
// a hard error before any launch, not a silent fresh start. Other
// worker arguments over the same matrix (say a different -par) are the
// same campaign and resume.
func TestCoordinatorJournalIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	c := newTestCoordinator(t, dir, 2, 2)
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	reseeded := newTestCoordinator(t, dir, 2, 2)
	reseeded.cfg.Matrix.BaseSeed++
	requireRefusedBeforeLaunch(t, dir, reseeded)

	// Shard 1 must run again, under the new arguments.
	if err := os.Remove(filepath.Join(dir, "shard-001.json")); err != nil {
		t.Fatal(err)
	}
	rerun := newTestCoordinator(t, dir, 2, 2)
	rerun.cfg.WorkerArgs = []string{"-test.run=TestHelperWorker", "-test.count=1", "--"}
	res, err := rerun.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Done) != 2 || res.Table[1].Attempts != 1 {
		t.Fatalf("done=%v table=%+v, want both done and shard 1 relaunched once", res.Done, res.Table)
	}
	if got, want := res.Report.CSV(), referenceCSV(t); got != want {
		t.Errorf("merged CSV differs after a resume with other worker arguments")
	}
}

// TestCoordinatorGapsWhenNothingCompletes: when no shard completes the
// partial result still accounts every missing cell and run. Here no
// worker can even start.
func TestCoordinatorGapsWhenNothingCompletes(t *testing.T) {
	c := newTestCoordinator(t, t.TempDir(), 2, 2)
	c.cfg.WorkerBin = filepath.Join(t.TempDir(), "no-such-worker")
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 2 || res.Report != nil {
		t.Fatalf("failed=%v report=%v, want both shards failed and no report", res.Failed, res.Report)
	}
	if g := res.Gaps; fmt.Sprint(g.Missing) != "[0 1]" || g.MissingCells != 8 || g.MissingRuns != 32 {
		t.Fatalf("gaps = %+v, want shards [0 1], 8 cells, 32 runs", g)
	}
}
