package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/javelen/jtp/internal/campaign"
)

// runCaptured runs the CLI on args and returns its exit code and stderr.
func runCaptured(t *testing.T, args []string) (int, string) {
	t.Helper()
	code, _, msg := runOutputs(t, args)
	return code, msg
}

// runOutputs runs the CLI on args and returns its exit code, stdout and
// stderr.
func runOutputs(t *testing.T, args []string) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	savedOut, savedErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outF, errF
	code = run(args)
	os.Stdout, os.Stderr = savedOut, savedErr
	outF.Close()
	errF.Close()
	out, err := os.ReadFile(outF.Name())
	if err != nil {
		t.Fatal(err)
	}
	msg, err := os.ReadFile(errF.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out), string(msg)
}

// TestExpAllGolden pins the stdout of `jtpsim -exp all -scale 0.05`, as
// tables and as CSV: every experiment, end to end through the CLI. To
// regenerate after an intended change:
//
//	go run ./cmd/jtpsim -exp all -scale 0.05 > cmd/jtpsim/testdata/exp-all.txt
//	go run ./cmd/jtpsim -exp all -scale 0.05 -csv > cmd/jtpsim/testdata/exp-all.csv
func TestExpAllGolden(t *testing.T) {
	for _, tc := range []struct{ golden, args string }{
		{"exp-all.txt", "-exp all -scale 0.05"},
		{"exp-all.csv", "-exp all -scale 0.05 -csv"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		code, out, msg := runOutputs(t, strings.Fields(tc.args))
		if code != 0 {
			t.Fatalf("jtpsim %s: exit %d: %s", tc.args, code, msg)
		}
		if !bytes.Equal([]byte(out), want) {
			t.Errorf("jtpsim %s drifted from testdata/%s:\n--- got ---\n%s", tc.args, tc.golden, out)
		}
	}
}

// TestUnknownSubcommandExits2 pins the dispatch contract: a first word
// that is neither a subcommand nor a flag is a usage error naming the
// word, not a silent fall-through to the experiment list — and the
// retired `bench` subcommand points at its replacement.
func TestUnknownSubcommandExits2(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"bench -preset huge -check", `jtpsim: unknown subcommand "bench" (the benchmark is: go run -C bench .)`},
		{"bogus -exp fig9", `jtpsim: unknown subcommand "bogus"`},
	} {
		if code, msg := runCaptured(t, strings.Fields(tc.args)); code != 2 || !strings.HasPrefix(msg, tc.want) {
			t.Errorf("jtpsim %s: exit %d, stderr %q; want exit 2 and %q", tc.args, code, msg, tc.want)
		}
	}
}

// TestStrayArgumentExits2: flag parsing stops at the first word that is
// not a flag, so a mode that takes no positional argument rejects one
// rather than drop the flags after it (here -csv and -v).
func TestStrayArgumentExits2(t *testing.T) {
	out := filepath.Join(t.TempDir(), "coord")
	for _, tc := range []struct{ args, want string }{
		{"-exp table1 stray -csv", `jtpsim: unexpected argument "stray"`},
		{"batch -matrix m.json stray -v", `jtpsim batch: unexpected argument "stray"`},
		{"coord -exp table1 -shards 1 -out " + out + " stray -csv", `jtpsim coord: unexpected argument "stray"`},
		{"gen -family chain -nodes 3 stray -run", `jtpsim gen: unexpected argument "stray"`},
	} {
		if code, msg := runCaptured(t, strings.Fields(tc.args)); code != 2 || strings.TrimSpace(msg) != tc.want {
			t.Errorf("jtpsim %s: exit %d, stderr %q; want exit 2 and %q", tc.args, code, msg, tc.want)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("coord with a stray argument touched its out-dir: %v", err)
	}
}

// TestStatusFlagIsUnknown: workers report liveness through their
// checkpoint alone, so no mode takes -status; batch rejects it as any
// unknown flag, with exit 2. Flag errors exit the process, so the CLI
// runs in a child copy of this test binary.
func TestStatusFlagIsUnknown(t *testing.T) {
	if os.Getenv("JTPSIM_TEST_RUN_CLI") == "1" {
		os.Exit(run([]string{"batch", "-matrix", "m.json", "-status", "x"}))
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestStatusFlagIsUnknown$")
	cmd.Env = append(os.Environ(), "JTPSIM_TEST_RUN_CLI=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined: -status") {
		t.Fatalf("jtpsim batch -status x: %v, output %q; want exit 2 naming the undefined flag", err, out)
	}
}

// TestExpAllCSVParses: with -csv, every block of `-exp all` — the
// lines between blank lines, less the "====" experiment headers — is a
// "# title" line followed by a table that encoding/csv reads as rows of
// equal width, so a plotting script can split and load the output.
func TestExpAllCSVParses(t *testing.T) {
	code, out, msg := runOutputs(t, strings.Fields("-exp all -scale 0.05 -csv"))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, msg)
	}
	blocks := 0
	for _, block := range strings.Split(out, "\n\n") {
		lines := strings.Split(strings.TrimSpace(block), "\n")
		if strings.HasPrefix(lines[0], "==== ") {
			lines = lines[1:]
		}
		if len(lines) == 0 || lines[0] == "" {
			continue
		}
		if !strings.HasPrefix(lines[0], "# ") {
			t.Errorf("block does not open with a # title:\n%s", block)
			continue
		}
		rows, err := csv.NewReader(strings.NewReader(strings.Join(lines[1:], "\n"))).ReadAll()
		if err != nil || len(rows) < 2 {
			t.Errorf("%s: %d rows, %v", lines[0], len(rows), err)
		}
		blocks++
	}
	// fig3, fig3c, fig4, fig7, fig9 and fig10 have two tables, fig11
	// three, and fig5, fig6, fig8, table1 and table2 one each.
	if blocks != 20 {
		t.Errorf("%d tables, want 20", blocks)
	}
}

// TestMergeRefusesMidRunCheckpoint: a checkpoint is a shard file, so
// `jtpsim merge` reads one, but it must refuse to fold one that holds
// only part of its shard's runs, and name that shard.
func TestMergeRefusesMidRunCheckpoint(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	m := campaign.Matrix{Name: "mid", Axes: []campaign.Axis{{Name: "x", Values: campaign.Ints(1, 2, 3)}}, Runs: 4}
	ctx, cancel := context.WithCancel(context.Background())
	campaign.Execute(ctx, m, campaign.Options{Workers: 1, Shard: campaign.Shard{Index: 1, Of: 2}, Checkpoint: ck},
		func(ctx context.Context, spec campaign.RunSpec) (campaign.Sample, error) {
			if spec.Index == 10 {
				cancel()
			}
			return campaign.Sample{"v": float64(spec.Run)}, ctx.Err()
		})
	cancel()
	code, msg := runCaptured(t, []string{"merge", ck})
	if want := "shard 1/2 is incomplete"; code == 0 || !strings.Contains(msg, want) {
		t.Fatalf("merge of a mid-run checkpoint: exit %d, stderr %q; want non-zero and %q", code, msg, want)
	}
}

// TestResumeRefusesOtherRunLength: the fingerprint covers a batch's
// non-axis settings, so a checkpoint written at one -seconds does not
// resume under another.
func TestResumeRefusesOtherRunLength(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "m.json")
	if err := os.WriteFile(spec, []byte(`{"name": "len", "nodes": [3], "runs": 1, "flows": 1, "warmup": 5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(dir, "ck.json")
	if code, msg := runCaptured(t, []string{"batch", "-matrix", spec, "-seconds", "40", "-checkpoint", ck}); code != 0 {
		t.Fatalf("first run: exit %d: %s", code, msg)
	}
	code, msg := runCaptured(t, []string{"batch", "-matrix", spec, "-seconds", "200", "-checkpoint", ck})
	if want := "different campaign"; code == 0 || !strings.Contains(msg, want) {
		t.Fatalf("resume at another -seconds: exit %d, stderr %q; want non-zero and %q", code, msg, want)
	}
}

// TestMergeRefusesMixedScales: shards of one figure run at different
// -scale values are different campaigns, and merge says so by naming
// the fingerprint.
func TestMergeRefusesMixedScales(t *testing.T) {
	dir := t.TempDir()
	s0, s1 := filepath.Join(dir, "s0.json"), filepath.Join(dir, "s1.json")
	for _, args := range [][]string{
		{"-exp", "fig5", "-scale", "0.2", "-shard", "0/2", "-shard-out", s0},
		{"-exp", "fig5", "-scale", "0.4", "-shard", "1/2", "-shard-out", s1},
	} {
		if code, _, msg := runOutputs(t, args); code != 0 {
			t.Fatalf("jtpsim %v: exit %d: %s", args, code, msg)
		}
	}
	code, msg := runCaptured(t, []string{"merge", s0, s1})
	if want := "fingerprint"; code == 0 || !strings.Contains(msg, want) {
		t.Fatalf("merge of mixed scales: exit %d, stderr %q; want non-zero and %q", code, msg, want)
	}
}

// TestCoordChecksMatrixBeforeLaunch: coord loads its campaign as batch
// does, before it writes anything, so a missing or invalid -matrix fails
// at once with the real error instead of crash-looping workers.
func TestCoordChecksMatrixBeforeLaunch(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"protocols": ["nope"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ matrix, want string }{
		{filepath.Join(dir, "missing.json"), "no such file"},
		{bad, `unknown protocol "nope"`},
	} {
		out := filepath.Join(dir, "out")
		code, msg := runCaptured(t, []string{"coord", "-matrix", tc.matrix, "-shards", "2", "-out", out, "-q"})
		if code != 1 || !strings.Contains(msg, tc.want) {
			t.Errorf("coord -matrix %s: exit %d, stderr %q; want exit 1 and %q", tc.matrix, code, msg, tc.want)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("coord -matrix %s created its out-dir (%v)", tc.matrix, err)
		}
	}
}
