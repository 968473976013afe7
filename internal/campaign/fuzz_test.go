package campaign

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadShardFile fuzzes the one reader of campaign state on disk:
// shard results and checkpoints. Whatever the bytes, parsing and check
// never panic and reject only with ErrCorruptShardFile; a file they
// accept restores into a fresh report of its geometry without an index
// error, renders, and re-exports as a file that passes check again.
// The seeds are a real shard result, a real mid-run checkpoint and
// checkpoints of the two previous schema versions.
func FuzzReadShardFile(f *testing.F) {
	dir := f.TempDir()
	m := testMatrix()
	out := filepath.Join(dir, "shard.json")
	if _, err := Execute(context.Background(), m, Options{Shard: Shard{1, 3}, ShardOut: out}, shardedTelRun); err != nil {
		f.Fatal(err)
	}
	ck := filepath.Join(dir, "ck.json")
	ctx, cancel := context.WithCancel(context.Background())
	Execute(ctx, m, Options{Workers: 1, Checkpoint: ck, CheckpointEvery: 4}, cancelAtRun(cancel, 23))
	cancel()
	for i, path := range []string{out, ck, filepath.Join("testdata", "v1-checkpoint.json"), filepath.Join("testdata", "v2-checkpoint.json")} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// The result holds all its runs, the checkpoint only some.
		if sf, err := parseShardFile(data); i < 2 && (err != nil || sf.Runs == 0 || (sf.Runs == sf.ownedRuns()) != (i == 0)) {
			f.Fatalf("seed %s: %v", path, err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := parseShardFile(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptShardFile) {
				t.Fatalf("rejection does not wrap ErrCorruptShardFile: %v", err)
			}
			return
		}
		if sf.NumCells > 1<<10 || (len(sf.Axes) == 0 && sf.NumCells != 1) {
			return // no small matrix of this geometry to restore into
		}
		// A matrix of the file's geometry: the first axis carries every
		// cell, any further axis a single value.
		m := Matrix{Name: sf.Campaign, Runs: sf.RunsPerCell}
		for i, name := range sf.Axes {
			n := 1
			if i == 0 {
				n = sf.NumCells
			}
			vals := make([]any, n)
			for j := range vals {
				vals[j] = j
			}
			m.Axes = append(m.Axes, Axis{Name: name, Values: vals})
		}
		rep := newReport(&m)
		rep.Shard = sf.Shard.norm()
		frontier, err := sf.restore(rep)
		if err != nil {
			t.Fatalf("accepted file does not restore: %v", err)
		}
		if frontier != sf.Runs || rep.Runs != sf.Runs {
			t.Fatalf("restored frontier %d, runs %d; file has %d", frontier, rep.Runs, sf.Runs)
		}
		_ = rep.Table("fuzz").String()
		_ = rep.CSV()
		if err := BuildShardFile(rep).check(); err != nil {
			t.Fatalf("restored state re-exports as a corrupt file: %v", err)
		}
	})
}
