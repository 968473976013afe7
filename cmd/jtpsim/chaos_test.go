package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/javelen/jtp/internal/coordinator"
)

// TestArmChaosExit: JTPSIM_CHAOS_EXIT_AT arms any worker with
// -checkpoint, at "SEQ" for every shard or "SHARD:SEQ" for one; a
// worker without a checkpoint is never armed, and a malformed value is
// an error.
func TestArmChaosExit(t *testing.T) {
	for _, tc := range []struct {
		name       string
		env        string
		checkpoint string
		armed      bool
		at         int
		err        bool
	}{
		{name: "unset", env: "", checkpoint: "s.ck.json"},
		{name: "no_checkpoint", env: "5", checkpoint: ""},
		{name: "every_shard", env: "5", checkpoint: "s.ck.json", armed: true, at: 5},
		{name: "this_shard", env: "2:7", checkpoint: "s.ck.json", armed: true, at: 7},
		{name: "other_shard", env: "1:7", checkpoint: "s.ck.json"},
		{name: "bad_shard", env: "x:7", checkpoint: "s.ck.json", err: true},
		{name: "bad_seq", env: "2:x", checkpoint: "s.ck.json", err: true},
		{name: "negative_seq", env: "-1", checkpoint: "s.ck.json", err: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv(coordinator.EnvChaosExitAt, tc.env)
			o := &options{checkpoint: tc.checkpoint}
			err := o.armChaosExit(2)
			if (err != nil) != tc.err {
				t.Fatalf("armChaosExit(2) with %q: err = %v, want error %v", tc.env, err, tc.err)
			}
			if o.chaosArmed != tc.armed || o.chaosExitAt != tc.at {
				t.Errorf("armed = %v at %d, want %v at %d", o.chaosArmed, o.chaosExitAt, tc.armed, tc.at)
			}
		})
	}
}

// TestChaosSuicideOncePerShard: the first chaosSuicide of a shard exits
// with ChaosExitCode and leaves <checkpoint>.chaos-fired; with that
// stamp in place the relaunched worker's call returns. The exit runs in
// a child copy of this test binary.
func TestChaosSuicideOncePerShard(t *testing.T) {
	if ck := os.Getenv("JTPSIM_TEST_CHAOS_CHECKPOINT"); ck != "" {
		(&options{checkpoint: ck}).chaosSuicide(4)
		os.Exit(0)
	}
	ck := filepath.Join(t.TempDir(), "shard-000.ck.json")
	child := func() (int, string) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestChaosSuicideOncePerShard$")
		cmd.Env = append(os.Environ(), "JTPSIM_TEST_CHAOS_CHECKPOINT="+ck)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatal(err)
		}
		return cmd.ProcessState.ExitCode(), string(out)
	}
	code, out := child()
	if code != coordinator.ChaosExitCode || !strings.Contains(out, "chaos: exiting at fold seq 4") {
		t.Fatalf("first call: exit %d, output %q; want exit %d at fold seq 4", code, out, coordinator.ChaosExitCode)
	}
	if _, err := os.Stat(ck + ".chaos-fired"); err != nil {
		t.Fatalf("no stamp after the first call: %v", err)
	}
	if code, out := child(); code != 0 {
		t.Fatalf("second call: exit %d, output %q; want it to return", code, out)
	}
}

// TestOnProgressHungOnlyWhenAsked: a worker hangs the campaign's
// progress hook only for -v, telemetry, -progress or an armed chaos
// exit; otherwise the campaign folds without a per-run callback.
func TestOnProgressHungOnlyWhenAsked(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, o *options)
		hung  bool
	}{
		{name: "none", setup: func(t *testing.T, o *options) {}},
		{name: "checkpoint_only", setup: func(t *testing.T, o *options) { o.checkpoint = "s.ck.json" }},
		{name: "verbose", setup: func(t *testing.T, o *options) { o.verbose = true }, hung: true},
		{name: "progress", setup: func(t *testing.T, o *options) { o.progress = true }, hung: true},
		{name: "telemetry", setup: func(t *testing.T, o *options) {
			o.telemetry = filepath.Join(t.TempDir(), "t.jsonl")
		}, hung: true},
		{name: "chaos", setup: func(t *testing.T, o *options) {
			t.Setenv(coordinator.EnvChaosExitAt, "3")
			o.checkpoint = "s.ck.json"
		}, hung: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv(coordinator.EnvChaosExitAt, "")
			o := &options{}
			tc.setup(t, o)
			opt, _, stop, err := o.start()
			stop()
			if err != nil {
				t.Fatal(err)
			}
			if hung := opt.OnProgress != nil; hung != tc.hung {
				t.Errorf("OnProgress hung = %v, want %v", hung, tc.hung)
			}
		})
	}
}
