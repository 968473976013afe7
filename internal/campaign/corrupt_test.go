package campaign

// Robustness tests for damaged coordination state: corrupt checkpoints
// must degrade to a cold start with a warning (never panic, never
// resume wrongly), and merge must reject every shard-set mix-up with a
// descriptive error rather than folding silently wrong aggregates.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// corruptions maps a name to a mutation of a valid checkpoint file.
// Each produces damage a torn write, disk-full, stray editor or older
// build could: the reader must classify all of them as
// ErrCorruptShardFile.
var corruptions = map[string]func(t *testing.T, path string){
	"empty": func(t *testing.T, path string) {
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	},
	"garbage": func(t *testing.T, path string) {
		if err := os.WriteFile(path, []byte("{\"version\":2,\"runs"), 0o644); err != nil {
			t.Fatal(err)
		}
	},
	"truncated": func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	},
	"frontier out of range": func(t *testing.T, path string) {
		// Valid JSON, valid fingerprint — but a fold frontier beyond the
		// campaign. Resuming it would skip work or index out of bounds.
		rewriteCheckpoint(t, path, func(m map[string]any) { m["runs"] = 1 << 20 })
	},
	"negative frontier": func(t *testing.T, path string) {
		rewriteCheckpoint(t, path, func(m map[string]any) { m["runs"] = -3 })
	},
	"state shape mismatch": func(t *testing.T, path string) {
		rewriteCheckpoint(t, path, func(m map[string]any) { m["numCells"] = 999 })
	},
	"version 1 checkpoint": func(t *testing.T, path string) {
		// A mid-run checkpoint written by the build before checkpoints
		// became shard files: {version, fingerprint, nextSeq, state}.
		copyFixture(t, "v1-checkpoint.json", path)
	},
	"version 2 checkpoint": func(t *testing.T, path string) {
		// A mid-run checkpoint of this campaign written by the build
		// before fingerprints covered Matrix.Config: its fingerprint
		// differs, so only the version check keeps it from a hard refusal.
		copyFixture(t, "v2-checkpoint.json", path)
	},
}

// copyFixture copies testdata/name to path.
func copyFixture(t *testing.T, name, path string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// rewriteCheckpoint round-trips the checkpoint JSON through a generic
// map, applies mutate, and writes it back.
func rewriteCheckpoint(t *testing.T, path string, mutate func(map[string]any)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	mutate(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCorruptionColdStart is the corruption-injection
// property: whatever the damage, Execute must fall back to a cold start
// with a warning and still converge to the byte-identical report — a
// corrupt checkpoint can cost recomputation, never correctness.
func TestCheckpointCorruptionColdStart(t *testing.T) {
	m := testMatrix()
	clean, err := Execute(context.Background(), m, Options{Workers: 4}, shardedTelRun)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, clean)

	for name, corrupt := range corruptions {
		t.Run(strings.ReplaceAll(name, " ", "_"), func(t *testing.T) {
			ck := filepath.Join(t.TempDir(), "ck.json")
			// A real, complete checkpoint to damage.
			if _, err := Execute(context.Background(), m, Options{Checkpoint: ck}, shardedTelRun); err != nil {
				t.Fatal(err)
			}
			corrupt(t, ck)

			// The reader must classify the damage as corruption...
			if _, err := ReadShardFile(ck); !errors.Is(err, ErrCorruptShardFile) {
				t.Fatalf("ReadShardFile: err = %v, want ErrCorruptShardFile", err)
			}

			// ...and Execute must warn, cold-start, and still be exact.
			var warnings []string
			rep, err := Execute(context.Background(), m, Options{
				Workers:    2,
				Checkpoint: ck,
				Warn: func(format string, args ...any) {
					warnings = append(warnings, fmt.Sprintf(format, args...))
				},
			}, shardedTelRun)
			if err != nil {
				t.Fatalf("execute over corrupt checkpoint: %v", err)
			}
			if len(warnings) == 0 {
				t.Error("no warning for discarded corrupt checkpoint")
			}
			if got := renderAll(t, rep); !bytes.Equal(got, want) {
				t.Errorf("report after corrupt-checkpoint cold start differs from clean run")
			}
		})
	}
}

// TestCheckpointGeometryColdStart: damage can leave a sharded checkpoint
// passing check under a wrong matrix size (shard 0/3 owns cells [0,4)
// of 12 cells and of 13 alike). A file whose geometry disagrees with
// its campaign's is never resumed: Execute warns and cold-starts to the
// clean bytes.
func TestCheckpointGeometryColdStart(t *testing.T) {
	m := testMatrix()
	dir := t.TempDir()
	ck, out, clean := filepath.Join(dir, "ck.json"), filepath.Join(dir, "out.json"), filepath.Join(dir, "clean.json")
	sh := Shard{0, 3}
	if _, err := Execute(context.Background(), m, Options{Shard: sh, Checkpoint: ck, ShardOut: clean}, shardedTelRun); err != nil {
		t.Fatal(err)
	}
	rewriteCheckpoint(t, ck, func(m map[string]any) { m["numCells"] = 13 })
	if _, err := ReadShardFile(ck); err != nil {
		t.Fatalf("damaged file no longer passes check, so this test covers nothing: %v", err)
	}
	var warnings []string
	if _, err := Execute(context.Background(), m, Options{
		Shard: sh, Checkpoint: ck, ShardOut: out,
		Warn: func(format string, args ...any) { warnings = append(warnings, fmt.Sprintf(format, args...)) },
	}, shardedTelRun); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(clean)
	got, _ := os.ReadFile(out)
	if len(warnings) != 1 || !strings.Contains(warnings[0], "geometry") || !bytes.Equal(got, want) {
		t.Fatalf("warnings %q; shard file equals the clean one: %v", warnings, bytes.Equal(got, want))
	}
}

// TestMergeFailureModes is the table-driven contract for merge
// validation: a duplicate shard index, overlapping cell ranges (a file
// holding cells its shard does not own), mismatched matrix fingerprints
// and an incomplete shard must each produce a descriptive error from
// MergeReports and MergeAvailable alike.
func TestMergeFailureModes(t *testing.T) {
	mk := func(m Matrix, i, of int) *ShardFile {
		rep, err := Execute(context.Background(), m, Options{Shard: Shard{i, of}}, seededRun)
		if err != nil {
			t.Fatal(err)
		}
		return BuildShardFile(rep)
	}
	m := testMatrix()
	s0, s1, s2 := mk(m, 0, 3), mk(m, 1, 3), mk(m, 2, 3)

	// Same campaign name and shape, different base seed: only the
	// fingerprint can tell these apart.
	mOther := testMatrix()
	mOther.BaseSeed = m.BaseSeed + 1
	sOther := mk(mOther, 1, 3)

	// A shard-0 file relabeled as shard 1: its cells overlap shard 0's
	// real file while the index set looks complete.
	relabeled := mk(m, 0, 3)
	relabeled.Shard = Shard{1, 3}

	// Shard 1 killed partway: a valid mid-run checkpoint, not a result.
	ctx, cancel := context.WithCancel(context.Background())
	part, _ := Execute(ctx, m, Options{Workers: 1, Shard: Shard{1, 3}}, cancelAtRun(cancel, 27))
	cancel()
	partial := BuildShardFile(part)
	if err := partial.check(); err != nil || partial.Runs == 0 || partial.Runs >= partial.ownedRuns() {
		t.Fatalf("mid-run shard file: %d of %d runs, check %v", partial.Runs, partial.ownedRuns(), err)
	}

	cases := []struct {
		name    string
		files   []*ShardFile
		wantErr string
	}{
		{"duplicate shard index", []*ShardFile{s0, s1, s1}, "duplicate shard"},
		{"overlapping cell ranges", []*ShardFile{s0, relabeled, s2}, "expected owned cell 4, found cell 0"},
		{"mismatched matrix fingerprints", []*ShardFile{s0, sOther, s2}, "matrix fingerprint"},
		{"incomplete shard", []*ShardFile{s0, partial, s2}, "shard 1/3 is incomplete"},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.name, " ", "_"), func(t *testing.T) {
			if _, err := MergeReports(tc.files...); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("MergeReports err = %v, want substring %q", err, tc.wantErr)
			}
			if _, _, err := MergeAvailable(tc.files...); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("MergeAvailable err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestMergeAvailableAccounting pins the graceful-degradation
// arithmetic: with shards absent, the partial report folds exactly the
// covered cells and the gaps account for the absent shards' cells and
// runs without ever having seen their files.
func TestMergeAvailableAccounting(t *testing.T) {
	m := testMatrix() // 12 cells × 5 runs, split 5 ways below
	mk := func(i int) *ShardFile {
		rep, err := Execute(context.Background(), m, Options{Shard: Shard{i, 5}}, seededRun)
		if err != nil {
			t.Fatal(err)
		}
		return BuildShardFile(rep)
	}
	// Shards 2 and 4 "failed": their files never materialized.
	rep, gaps, err := MergeAvailable(mk(0), mk(1), mk(3))
	if err != nil {
		t.Fatal(err)
	}
	if gaps.Complete() {
		t.Fatal("gaps claim completeness with 2 shards missing")
	}
	if want := []int{2, 4}; len(gaps.Missing) != 2 || gaps.Missing[0] != want[0] || gaps.Missing[1] != want[1] {
		t.Errorf("Missing = %v, want %v", gaps.Missing, want)
	}
	// CellRange(12 cells, of=5): shard 2 owns [4,7), shard 4 owns [9,12).
	if gaps.MissingCells != 6 || gaps.MissingRuns != 30 {
		t.Errorf("gaps = %d cells / %d runs, want 6 / 30", gaps.MissingCells, gaps.MissingRuns)
	}
	if rep.Runs != 30 || len(rep.Cells) != 6 {
		t.Errorf("partial report: %d runs over %d cells, want 30 over 6", rep.Runs, len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Runs != 5 {
			t.Errorf("covered cell %s folded %d runs, want 5", c.Cell.Key(), c.Runs)
		}
	}

	// The same set completed fully must equal the unsharded run.
	full, gaps2, err := MergeAvailable(mk(0), mk(1), mk(2), mk(3), mk(4))
	if err != nil || !gaps2.Complete() {
		t.Fatalf("full merge: %v (gaps %+v)", err, gaps2)
	}
	unsharded, err := Execute(context.Background(), m, Options{Workers: 4}, seededRun)
	if err != nil {
		t.Fatal(err)
	}
	if full.CSV() != unsharded.CSV() {
		t.Error("full MergeAvailable differs from unsharded run")
	}
}
