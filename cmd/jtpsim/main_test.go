package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCaptured runs the CLI on args and returns its exit code and stderr.
func runCaptured(t *testing.T, args []string) (int, string) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = f
	code := run(args)
	os.Stderr = saved
	f.Close()
	msg, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(msg)
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

// TestCampaignFlagsOnSingleRunExit2: a flag only a campaign honors, given
// to a single-run experiment (or `coord -exp` naming one), is a usage
// error that lists the campaign ids — raised before any file is opened
// or any worker spawned, instead of the flag being silently ignored.
func TestCampaignFlagsOnSingleRunExit2(t *testing.T) {
	const ids = "fig10, fig11, fig3, fig4, fig6, fig7, fig9, table2"
	for _, args := range []string{
		"-exp fig8 -scale 0.05 -shard 0/2 -shard-out DIR/s0.json",
		"-exp table1 -telemetry DIR/t.jsonl -cpuprofile DIR/cpu.prof",
		"-exp fig3c -checkpoint DIR/ck.json",
		"-exp fig5 -status DIR/status.jsonl",
		"-exp table1 -progress",
		"coord -exp table1 -shards 2 -out DIR/d",
		"coord -exp nosuch -shards 2 -out DIR/d",
	} {
		dir := t.TempDir()
		code, msg := runCaptured(t, strings.Fields(strings.ReplaceAll(args, "DIR", dir)))
		if code != 2 || !strings.HasSuffix(msg, ids+"\n") {
			t.Errorf("jtpsim %s: exit %d, stderr %q; want exit 2 and the campaign ids", args, code, msg)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("jtpsim %s: created %s before refusing", args, left[0].Name())
		}
	}
}
