package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParseShard(t *testing.T) {
	good := map[string]Shard{
		"0/1": {0, 1},
		"0/3": {0, 3},
		"2/3": {2, 3},
		"7/8": {7, 8},
	}
	for in, want := range good {
		got, err := ParseShard(in)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "1", "a/b", "3/3", "-1/3", "0/0", "0/-2", "1/2/3"} {
		if _, err := ParseShard(in); err == nil {
			t.Errorf("ParseShard(%q) accepted", in)
		}
	}
}

// TestShardPartition pins the selection contract: for any cell count
// and shard count, cell ranges are contiguous, disjoint, balanced to
// within one cell, and cover everything — and the induced run-list
// filter partitions Expand() exactly.
func TestShardPartition(t *testing.T) {
	for _, numCells := range []int{1, 2, 3, 7, 12, 100} {
		for _, of := range []int{1, 2, 3, 8, 13} {
			covered := 0
			min, max := numCells, 0
			for i := 0; i < of; i++ {
				lo, hi := (Shard{i, of}).CellRange(numCells)
				if lo > hi || lo < 0 || hi > numCells {
					t.Fatalf("cells=%d shard %d/%d: bad range [%d,%d)", numCells, i, of, lo, hi)
				}
				if i > 0 {
					plo, phi := (Shard{i - 1, of}).CellRange(numCells)
					_ = plo
					if phi != lo {
						t.Fatalf("cells=%d shards %d,%d/%d not contiguous", numCells, i-1, i, of)
					}
				}
				covered += hi - lo
				if hi-lo < min {
					min = hi - lo
				}
				if hi-lo > max {
					max = hi - lo
				}
			}
			if covered != numCells {
				t.Fatalf("cells=%d of=%d: covered %d", numCells, of, covered)
			}
			if of <= numCells && max-min > 1 {
				t.Fatalf("cells=%d of=%d: imbalance %d..%d", numCells, of, min, max)
			}
		}
	}

	m := testMatrix() // 12 cells × 5 runs
	all := m.Expand()
	for _, of := range []int{1, 2, 3, 8} {
		var got []RunSpec
		for i := 0; i < of; i++ {
			part := (Shard{i, of}).filterSpecs(all, m.NumCells(), m.runsPerCell())
			got = append(got, part...)
		}
		if len(got) != len(all) {
			t.Fatalf("of=%d: filtered union has %d specs, want %d", of, len(got), len(all))
		}
		for i := range all {
			if got[i].Index != all[i].Index || got[i].Seed != all[i].Seed {
				t.Fatalf("of=%d: spec %d differs after partition", of, i)
			}
		}
	}
}

// shardedTelRun is a deterministic pseudo-simulation with observables,
// telemetry counters and a telemetry high-water mark, so merge identity
// covers every fold path.
func shardedTelRun(_ context.Context, spec RunSpec) (Sample, error) {
	r := rand.New(rand.NewSource(spec.Seed))
	return Sample{
		"energy":                      r.Float64() * 1e-6,
		"goodput":                     1e3 + r.Float64()*1e4,
		TelemetryPrefix + "events":    float64(100 + r.Intn(50)),
		TelemetryPrefix + "depth_hwm": float64(r.Intn(30)),
	}, nil
}

// renderAll captures every emission surface of a report.
func renderAll(t *testing.T, rep *Report) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString(rep.Table("tbl").String())
	b.WriteString(rep.CSV())
	b.WriteString(rep.TelemetryCSV())
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b.Write(js)
	fmt.Fprintf(&b, "\nruns=%d failures=%d interrupted=%d", rep.Runs, rep.Failures, rep.Interrupted)
	return b.Bytes()
}

// randomMatrix builds a random but reproducible matrix for property
// tests: 1-3 axes with assorted value types, 1-4 runs per cell.
func randomMatrix(r *rand.Rand, trial int) Matrix {
	m := Matrix{Name: fmt.Sprintf("prop-%d", trial), Runs: r.Intn(4) + 1, BaseSeed: int64(trial)*7919 + 3}
	axes := r.Intn(3) + 1
	for a := 0; a < axes; a++ {
		n := r.Intn(4) + 1
		vals := make([]any, n)
		for v := range vals {
			switch r.Intn(3) {
			case 0:
				vals[v] = fmt.Sprintf("s%d", v)
			case 1:
				vals[v] = v * 10
			default:
				vals[v] = float64(v) + 0.5
			}
		}
		m.Axes = append(m.Axes, Axis{Name: fmt.Sprintf("ax%d", a), Values: vals})
	}
	return m
}

// TestShardMergeByteIdentity is the merge/equivalence property test:
// for random matrices and any shard count N ∈ {1,2,3,8}, executing the
// N shards separately, writing their shard files, reading them back and
// merging produces a report whose table, CSV, JSON and telemetry
// emissions are byte-identical to the unsharded 8-worker run's.
func TestShardMergeByteIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	dir := t.TempDir()
	for trial := 0; trial < 12; trial++ {
		m := randomMatrix(r, trial)
		base, err := Execute(context.Background(), m, Options{Workers: 8}, shardedTelRun)
		if err != nil {
			t.Fatalf("trial %d: unsharded: %v", trial, err)
		}
		want := renderAll(t, base)

		for _, of := range []int{1, 2, 3, 8} {
			files := make([]*ShardFile, of)
			for i := 0; i < of; i++ {
				path := filepath.Join(dir, fmt.Sprintf("t%d-of%d-s%d.json", trial, of, i))
				_, err := Execute(context.Background(), m, Options{
					Workers:  1 + r.Intn(4),
					Shard:    Shard{Index: i, Of: of},
					ShardOut: path,
				}, shardedTelRun)
				if err != nil {
					t.Fatalf("trial %d shard %d/%d: %v", trial, i, of, err)
				}
				if files[i], err = ReadShardFile(path); err != nil {
					t.Fatalf("trial %d shard %d/%d: %v", trial, i, of, err)
				}
			}
			// Merge in scrambled order: order must not matter.
			r.Shuffle(of, func(a, b int) { files[a], files[b] = files[b], files[a] })
			merged, err := MergeReports(files...)
			if err != nil {
				t.Fatalf("trial %d of=%d: merge: %v", trial, of, err)
			}
			if got := renderAll(t, merged); !bytes.Equal(got, want) {
				t.Fatalf("trial %d of=%d: merged emission differs from unsharded:\n--- merged ---\n%s\n--- unsharded ---\n%s",
					trial, of, got, want)
			}
		}
	}
}

// TestShardExecutionCoversOnlyItsCells checks a sharded report's
// non-shard cells stay untouched and shard totals sum to the campaign.
func TestShardExecutionCoversOnlyItsCells(t *testing.T) {
	m := testMatrix()
	totalRuns := 0
	for i := 0; i < 3; i++ {
		sh := Shard{Index: i, Of: 3}
		rep, err := Execute(context.Background(), m, Options{Workers: 4, Shard: sh}, seededRun)
		if err != nil {
			t.Fatal(err)
		}
		totalRuns += rep.Runs
		lo, hi := sh.CellRange(m.NumCells())
		for ci, c := range rep.Cells {
			inside := ci >= lo && ci < hi
			if inside && c.Runs != m.runsPerCell() {
				t.Fatalf("shard %d: cell %d has %d runs", i, ci, c.Runs)
			}
			if !inside && c.Runs != 0 {
				t.Fatalf("shard %d: cell %d outside range has %d runs", i, ci, c.Runs)
			}
		}
	}
	if totalRuns != m.NumRuns() {
		t.Fatalf("shards executed %d runs, want %d", totalRuns, m.NumRuns())
	}
}

func TestMergeReportsValidation(t *testing.T) {
	m := testMatrix()
	mk := func(i, of int) *ShardFile {
		rep, err := Execute(context.Background(), m, Options{Shard: Shard{i, of}}, seededRun)
		if err != nil {
			t.Fatal(err)
		}
		return BuildShardFile(rep)
	}
	s0, s1, s2 := mk(0, 3), mk(1, 3), mk(2, 3)

	if _, err := MergeReports(); err == nil {
		t.Error("merge of nothing accepted")
	}
	if _, err := MergeReports(s0, s1); err == nil {
		t.Error("incomplete shard set accepted")
	}
	if _, err := MergeReports(s0, s1, s1); err == nil {
		t.Error("duplicate shard accepted")
	}
	other := mk(0, 3)
	other.Campaign = "different"
	if _, err := MergeReports(other, s1, s2); err == nil {
		t.Error("campaign mismatch accepted")
	}
	bad := mk(0, 3)
	bad.Version = 99
	if _, err := MergeReports(bad, s1, s2); err == nil {
		t.Error("version mismatch accepted")
	}
	if rep, err := MergeReports(s2, s0, s1); err != nil || rep.Runs != m.NumRuns() {
		t.Errorf("full merge failed: %v (runs=%v)", err, rep)
	}
}

// TestShardFileVersionRejected pins the versioned-format contract.
func TestShardFileVersionRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	data := fmt.Sprintf(`{"version": %d, "campaign": "x"}`, ShardFileVersion+1)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShardFile(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version %d accepted: %v", ShardFileVersion+1, err)
	}
}

// TestCellKeyEscaping is the key-collision regression: axis values
// containing the key delimiters must not produce colliding keys, since
// keys identify cells in telemetry records and shard diagnostics.
func TestCellKeyEscaping(t *testing.T) {
	a := Cell{names: []string{"a"}, values: []any{"b/c"}}
	b := Cell{names: []string{"a", "c"}, values: []any{"b", ""}}
	if a.Key() == b.Key() {
		t.Fatalf("colliding keys: %q", a.Key())
	}
	if got, want := a.Key(), "a=b%2Fc"; got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
	c := Cell{names: []string{"x=y"}, values: []any{"50%"}}
	if got, want := c.Key(), "x%3Dy=50%25"; got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
	// Clean values (every axis value in the repo's matrices) are
	// untouched — logs and goldens keep their historical keys.
	d := Cell{names: []string{"proto", "nodes"}, values: []any{"jtp", 2}}
	if got, want := d.Key(), "proto=jtp/nodes=2"; got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
	// Round-trip distinctness over a generated family of nasty values.
	seen := map[string]string{}
	for _, v := range []string{"a", "a/b", "a=b", "a%2Fb", "a%b", "=", "/", "%", "a/b=c", ""} {
		cell := Cell{names: []string{"ax"}, values: []any{v}}
		k := cell.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("values %q and %q collide on key %q", prev, v, k)
		}
		seen[k] = v
	}
}

// TestValidateRunsZeroAndNegative pins the documented Runs semantics:
// zero clamps to one run per cell (and NumRuns says so); negatives are
// rejected by Validate before anything executes.
func TestValidateRunsZeroAndNegative(t *testing.T) {
	m := Matrix{Name: "r", Axes: []Axis{{Name: "a", Values: Ints(1, 2)}}, Runs: 0}
	if err := m.Validate(); err != nil {
		t.Fatalf("Runs=0 rejected: %v", err)
	}
	if got := m.NumRuns(); got != 2 {
		t.Fatalf("NumRuns with Runs=0 = %d, want 2 (one per cell)", got)
	}
	rep, err := Execute(context.Background(), m, Options{}, seededRun)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 2 || rep.Cells[0].Runs != 1 {
		t.Fatalf("Runs=0 executed %d total / %d in cell 0, want 2 / 1", rep.Runs, rep.Cells[0].Runs)
	}

	m.Runs = -1
	if err := m.Validate(); err == nil {
		t.Fatal("negative Runs accepted by Validate")
	}
	if _, err := Execute(context.Background(), m, Options{}, seededRun); err == nil {
		t.Fatal("negative Runs accepted by Execute")
	}
}

// TestCancellationNotCountedAsFailure is the satellite regression: a
// ctx-honoring RunFunc returning ctx.Err() after user cancellation must
// be classified interrupted — Report.Err() stays nil, no cell records a
// "context canceled" failure, and the discarded runs are counted
// separately so resume accounting stays clean.
func TestCancellationNotCountedAsFailure(t *testing.T) {
	m := Matrix{
		Name:     "cancel-class",
		Axes:     []Axis{{Name: "i", Values: Ints(0, 1, 2, 3)}},
		Runs:     50,
		BaseSeed: 5,
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	fn := func(ctx context.Context, spec RunSpec) (Sample, error) {
		<-mu
		n++
		if n == 25 {
			cancel()
		}
		mu <- struct{}{}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return Sample{"v": 1}, nil
	}
	rep, err := Execute(ctx, m, Options{Workers: 4}, fn)
	if err != context.Canceled && (err == nil || !strings.Contains(err.Error(), "context canceled")) {
		t.Fatalf("Execute err = %v, want context.Canceled", err)
	}
	if rep.Failures != 0 {
		t.Fatalf("cancelled campaign reports %d failures", rep.Failures)
	}
	if rep.Err() != nil {
		t.Fatalf("Report.Err() = %v after cancellation, want nil", rep.Err())
	}
	if rep.Interrupted == 0 {
		t.Fatal("cancelled campaign reports no interrupted runs")
	}
	if rep.Runs+rep.Interrupted > m.NumRuns() {
		t.Fatalf("runs %d + interrupted %d exceed total %d", rep.Runs, rep.Interrupted, m.NumRuns())
	}
	for ci, c := range rep.Cells {
		if c.FirstError != "" {
			t.Fatalf("cell %d records cancellation as failure: %q", ci, c.FirstError)
		}
	}
	// A real ctx error from a run's own sub-context, with the campaign
	// context live, stays a failure.
	rep2, err := Execute(context.Background(), Matrix{
		Name: "own-ctx", Axes: []Axis{{Name: "a", Values: Ints(0)}}, Runs: 2,
	}, Options{Workers: 1}, func(_ context.Context, _ RunSpec) (Sample, error) {
		return nil, context.Canceled
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Failures != 2 || rep2.Interrupted != 0 {
		t.Fatalf("internal ctx error: failures=%d interrupted=%d, want 2/0", rep2.Failures, rep2.Interrupted)
	}
}

// cancelAtRun builds a ctx-aware RunFunc that cancels the campaign once
// the run with the given global index has been handed out.
func cancelAtRun(cancel context.CancelFunc, at int) RunFunc {
	return func(ctx context.Context, spec RunSpec) (Sample, error) {
		if spec.Index == at {
			cancel()
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return shardedTelRun(ctx, spec)
	}
}

// TestCheckpointResumeByteIdentity is the kill-and-resume property: a
// campaign cancelled mid-flight with a checkpoint enabled, then
// re-executed from that checkpoint, must converge to a report whose
// every emission is byte-identical to an uninterrupted run's.
func TestCheckpointResumeByteIdentity(t *testing.T) {
	m := testMatrix() // 12 cells × 5 runs
	clean, err := Execute(context.Background(), m, Options{Workers: 8}, shardedTelRun)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, clean)

	for _, killAt := range []int{3, 17, 41, 58} {
		ck := filepath.Join(t.TempDir(), "ck.json")
		ctx, cancel := context.WithCancel(context.Background())
		rep, err := Execute(ctx, m, Options{
			Workers:         4,
			Checkpoint:      ck,
			CheckpointEvery: 2,
		}, cancelAtRun(cancel, killAt))
		cancel()
		if err == nil {
			t.Fatalf("killAt=%d: first execution was not interrupted", killAt)
		}
		if rep.Failures != 0 {
			t.Fatalf("killAt=%d: interruption recorded %d failures", killAt, rep.Failures)
		}
		if _, err := os.Stat(ck); err != nil {
			t.Fatalf("killAt=%d: no checkpoint written: %v", killAt, err)
		}

		resumed, err := Execute(context.Background(), m, Options{
			Workers:    8,
			Checkpoint: ck,
		}, shardedTelRun)
		if err != nil {
			t.Fatalf("killAt=%d: resume: %v", killAt, err)
		}
		if got := renderAll(t, resumed); !bytes.Equal(got, want) {
			t.Fatalf("killAt=%d: resumed report differs from uninterrupted run:\n--- resumed ---\n%s\n--- clean ---\n%s",
				killAt, got, want)
		}
		// Resuming an already-complete checkpoint is a no-op that
		// reproduces the same report without executing anything.
		again, err := Execute(context.Background(), m, Options{Checkpoint: ck},
			func(_ context.Context, spec RunSpec) (Sample, error) {
				t.Fatalf("killAt=%d: complete checkpoint re-executed run %d", killAt, spec.Index)
				return nil, nil
			})
		if err != nil {
			t.Fatalf("killAt=%d: re-resume: %v", killAt, err)
		}
		if got := renderAll(t, again); !bytes.Equal(got, want) {
			t.Fatalf("killAt=%d: memoized report differs", killAt)
		}
	}
}

// TestCheckpointShardedResume combines sharding and resume: each shard
// is killed once, resumed, written to its shard file, and the merged
// result must match the unsharded run byte-for-byte.
func TestCheckpointShardedResume(t *testing.T) {
	m := testMatrix()
	clean, err := Execute(context.Background(), m, Options{Workers: 8}, shardedTelRun)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, clean)

	dir := t.TempDir()
	const of = 3
	files := make([]*ShardFile, of)
	for i := 0; i < of; i++ {
		sh := Shard{Index: i, Of: of}
		ck := filepath.Join(dir, fmt.Sprintf("ck%d.json", i))
		out := filepath.Join(dir, fmt.Sprintf("shard%d.json", i))
		// Kill partway through the shard's own run range.
		lo, _ := sh.CellRange(m.NumCells())
		killAt := lo*m.runsPerCell() + 7
		ctx, cancel := context.WithCancel(context.Background())
		if _, err := Execute(ctx, m, Options{
			Workers: 2, Shard: sh, Checkpoint: ck, CheckpointEvery: 3, ShardOut: out,
		}, cancelAtRun(cancel, killAt)); err == nil {
			t.Fatalf("shard %d: not interrupted", i)
		}
		cancel()
		if _, err := os.Stat(out); err == nil {
			t.Fatalf("shard %d: interrupted execution wrote its shard file", i)
		}
		if _, err := Execute(context.Background(), m, Options{
			Workers: 4, Shard: sh, Checkpoint: ck, ShardOut: out,
		}, shardedTelRun); err != nil {
			t.Fatalf("shard %d resume: %v", i, err)
		}
		if files[i], err = ReadShardFile(out); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		// A checkpoint is a shard file: the completed shard's final
		// checkpoint is its result file, byte for byte.
		ckData, err1 := os.ReadFile(ck)
		outData, err2 := os.ReadFile(out)
		if err1 != nil || err2 != nil || !bytes.Equal(ckData, outData) {
			t.Fatalf("shard %d: final checkpoint differs from shard file (%v, %v)", i, err1, err2)
		}
	}
	merged, err := MergeReports(files...)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAll(t, merged); !bytes.Equal(got, want) {
		t.Fatalf("sharded+resumed merge differs from unsharded run:\n--- merged ---\n%s\n--- clean ---\n%s", got, want)
	}
}

// TestCheckpointFingerprintMismatch: resuming a checkpoint onto a
// different matrix, seed schedule, or shard must refuse loudly.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	m := testMatrix()
	if _, err := Execute(context.Background(), m, Options{Checkpoint: ck}, seededRun); err != nil {
		t.Fatal(err)
	}
	cases := map[string]Options{
		"different shard": {Checkpoint: ck, Shard: Shard{0, 2}},
	}
	for name, opt := range cases {
		if _, err := Execute(context.Background(), m, opt, seededRun); err == nil {
			t.Errorf("%s: resume accepted", name)
		}
	}
	renamed := m
	renamed.Name = "other"
	if _, err := Execute(context.Background(), renamed, Options{Checkpoint: ck}, seededRun); err == nil {
		t.Error("different campaign name: resume accepted")
	}
	revalued := m
	revalued.Axes = []Axis{m.Axes[0], {Name: "nodes", Values: Ints(2, 4, 6, 10)}}
	if _, err := Execute(context.Background(), revalued, Options{Checkpoint: ck}, seededRun); err == nil {
		t.Error("different axis value: resume accepted")
	}
	m2 := m
	m2.BaseSeed++
	if _, err := Execute(context.Background(), m2, Options{Checkpoint: ck}, seededRun); err == nil {
		t.Error("different base seed: resume accepted")
	}
	m3 := m
	m3.Runs++
	if _, err := Execute(context.Background(), m3, Options{Checkpoint: ck}, seededRun); err == nil {
		t.Error("different runs: resume accepted")
	}
	reconfigured := m
	reconfigured.Config = struct{ Seconds float64 }{200}
	if _, err := Execute(context.Background(), reconfigured, Options{Checkpoint: ck}, seededRun); err == nil {
		t.Error("different config: resume accepted")
	}
}

// TestMatrixConfigMustEncode: a Config the fingerprint cannot hash is a
// malformed matrix, refused before anything runs.
func TestMatrixConfigMustEncode(t *testing.T) {
	m := testMatrix()
	m.Config = struct{ Seconds float64 }{math.NaN()}
	if _, err := Execute(context.Background(), m, Options{}, seededRun); err == nil || !strings.Contains(err.Error(), "config") {
		t.Fatalf("err = %v, want a config error", err)
	}
}

// TestCheckpointFrontierIsRuns pins the fold-frontier invariant every
// checkpoint obeys: folding is strictly in order, so the frontier equals
// the folded run count, which equals the sum of the per-cell run counts.
// It reads every periodic checkpoint (one per fold) from inside
// OnProgress, and the final one after Execute returns, for whole and
// sharded executions, cold and resumed after a kill.
func TestCheckpointFrontierIsRuns(t *testing.T) {
	m := testMatrix()
	for _, sh := range []Shard{{0, 1}, {1, 3}, {2, 3}} {
		for _, killAt := range []int{0, 3, 17, 41, 58} {
			ck := filepath.Join(t.TempDir(), "ck.json")
			seen := 0
			check := func(when string) {
				t.Helper()
				data, err := os.ReadFile(ck)
				if os.IsNotExist(err) {
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				var cp ShardFile
				if err := json.Unmarshal(data, &cp); err != nil {
					t.Fatalf("shard %s kill %d %s: %v", sh, killAt, when, err)
				}
				sum := 0
				for _, c := range cp.Cells {
					sum += c.Runs
				}
				if cp.Runs != sum {
					t.Fatalf("shard %s kill %d %s: runs %d, Σ cell runs %d",
						sh, killAt, when, cp.Runs, sum)
				}
				seen++
			}
			for _, phase := range []string{"killed", "resumed"} {
				ctx, cancel := context.WithCancel(context.Background())
				fn := shardedTelRun
				if phase == "killed" {
					fn = cancelAtRun(cancel, killAt)
				}
				opt := Options{
					Workers: 2, Shard: sh, Checkpoint: ck, CheckpointEvery: 1,
					OnProgress: func(Progress) { check(phase + " periodic") },
				}
				_, err := Execute(ctx, m, opt, fn)
				cancel()
				if phase == "resumed" && err != nil {
					t.Fatalf("shard %s kill %d: resume: %v", sh, killAt, err)
				}
				check(phase + " final")
			}
			if seen < 2 {
				t.Fatalf("shard %s kill %d: read only %d checkpoints", sh, killAt, seen)
			}
		}
	}
}

// TestCheckpointCadenceIsWallClock: with no fold count set, a shard
// checkpoints on wall clock alone, so a shard that finishes inside its
// CheckpointInterval writes only its final checkpoint, and that equals
// its shard file. An explicit CheckpointEvery still bounds the folds
// between checkpoints.
func TestCheckpointCadenceIsWallClock(t *testing.T) {
	m := Matrix{Name: "cadence", Axes: []Axis{{Name: "x", Values: Ints(1, 2)}}, Runs: 300, BaseSeed: 5}
	sh := Shard{Index: 0, Of: 2} // one cell of 300 runs
	// firstSeen runs the shard and returns the fold frontier of the
	// first OnProgress tick that finds a checkpoint on disk (0: none).
	// A tick comes before its fold's checkpoint, so a checkpoint written
	// after fold k is first seen at frontier k+1.
	firstSeen := func(every int, ck, out string) int {
		t.Helper()
		seen := 0
		_, err := Execute(context.Background(), m, Options{
			Workers: 2, Shard: sh, Checkpoint: ck, ShardOut: out,
			CheckpointEvery: every, CheckpointInterval: time.Hour,
			OnProgress: func(p Progress) {
				if _, err := os.Stat(ck); seen == 0 && err == nil {
					seen = p.Done
				}
			},
		}, shardedTelRun)
		if err != nil {
			t.Fatal(err)
		}
		return seen
	}

	dir := t.TempDir()
	ck, out := filepath.Join(dir, "ck.json"), filepath.Join(dir, "out.json")
	if at := firstSeen(0, ck, out); at != 0 {
		t.Fatalf("default cadence: a checkpoint existed at fold %d of %d, inside the interval", at, m.Runs)
	}
	ckData, err1 := os.ReadFile(ck)
	outData, err2 := os.ReadFile(out)
	if err1 != nil || err2 != nil || !bytes.Equal(ckData, outData) {
		t.Fatalf("final checkpoint differs from shard file (%v, %v)", err1, err2)
	}

	if at := firstSeen(3, filepath.Join(dir, "ck3.json"), ""); at != 4 {
		t.Fatalf("CheckpointEvery 3: first checkpoint seen at fold frontier %d, want 4 (written after fold 3)", at)
	}
}

// TestWriteFileAtomicLeavesNoTemp: the durable write replaces the
// target and leaves no temp file behind, whether it succeeds or its
// rename fails (here because the target is a directory).
func TestWriteFileAtomicLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for _, content := range []string{"old", "new"} {
		if err := writeFileAtomic(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new" {
		t.Fatalf("content %q, %v; want %q", got, err, "new")
	}
	target := filepath.Join(dir, "taken")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(target, []byte("x")); err == nil {
		t.Fatal("rename over a directory succeeded")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, ".*.tmp*")); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}
