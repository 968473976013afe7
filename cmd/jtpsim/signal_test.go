package main

import (
	"context"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSignalContextDoubleInterrupt pins the two-stage interrupt
// contract: the first signal cancels the context (graceful
// checkpoint-and-exit), the second forces an immediate exit with code
// 130.
func TestSignalContextDoubleInterrupt(t *testing.T) {
	ch := make(chan os.Signal, 2)
	exited := make(chan int, 1)
	ctx, cancel := signalContext(context.Background(), ch, func(code int) {
		exited <- code
		select {} // a real os.Exit never returns
	})
	defer cancel()

	select {
	case <-ctx.Done():
		t.Fatal("context cancelled before any signal")
	default:
	}

	ch <- syscall.SIGINT
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("first signal did not cancel the context")
	}
	select {
	case code := <-exited:
		t.Fatalf("first signal force-exited (%d)", code)
	default:
	}

	ch <- syscall.SIGINT
	select {
	case code := <-exited:
		if code != forcedExitCode {
			t.Fatalf("forced exit code = %d, want %d", code, forcedExitCode)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second signal did not force exit")
	}
}

// TestSignalContextParentCancel: a normal completion (parent cancel, no
// signals) must release the watcher without any forced exit.
func TestSignalContextParentCancel(t *testing.T) {
	ch := make(chan os.Signal, 2)
	exited := make(chan int, 1)
	parent, parentCancel := context.WithCancel(context.Background())
	ctx, cancel := signalContext(parent, ch, func(code int) { exited <- code })
	defer cancel()

	parentCancel()
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("parent cancel did not propagate")
	}
	select {
	case code := <-exited:
		t.Fatalf("spurious forced exit (%d)", code)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestBatchCancelledReport drives the report of a campaign the first
// signal cancels, end to end: a checkpointed batch is sent SIGINT once
// its first checkpoint exists, and must exit 1 with the partial report
// on stdout and, on stderr, how many runs it folded and discarded and
// how to resume. The test holds its own SIGINT subscription throughout,
// so the signal can never reach the default handler.
func TestBatchCancelledReport(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "m.json")
	const runs = 8 * 200 // 4 sizes × 2 protocols × 200 runs, seconds of work
	if err := os.WriteFile(spec, []byte(`{"name": "cancel", "protocols": ["jtp", "tcp"],
		"nodes": [4, 6, 8, 10], "runs": 200, "seconds": 2500, "seed": 9}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(dir, "ck.json")

	held := make(chan os.Signal, 1)
	signal.Notify(held, os.Interrupt)
	defer signal.Stop(held)
	done, signalled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(signalled)
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
			if _, err := os.Stat(ck); err == nil {
				syscall.Kill(os.Getpid(), syscall.SIGINT)
				return
			}
		}
	}()
	code, out, msg := runOutputs(t, []string{"batch", "-matrix", spec, "-par", "2",
		"-checkpoint", ck, "-checkpoint-interval", "1ns", "-csv"})
	close(done)
	<-signalled

	if code != 1 {
		t.Fatalf("cancelled batch: exit %d, want 1; stderr:\n%s", code, msg)
	}
	m := regexp.MustCompile(`jtpsim batch: cancelled: context canceled \((\d+)/(\d+) runs aggregated, (\d+) discarded\)`).FindStringSubmatch(msg)
	if m == nil {
		t.Fatalf("stderr has no cancellation report:\n%s", msg)
	}
	folded, _ := strconv.Atoi(m[1])
	if total, _ := strconv.Atoi(m[2]); total != runs || folded >= runs {
		t.Errorf("report says %s/%s runs aggregated, want fewer than %d of %d", m[1], m[2], runs, runs)
	}
	if hint := "jtpsim batch: checkpoint saved to " + ck + "; rerun the same command to resume"; !strings.Contains(msg, hint) {
		t.Errorf("stderr lacks the resume hint %q:\n%s", hint, msg)
	}
	if !strings.HasPrefix(out, "proto,") {
		t.Errorf("stdout does not hold the partial report:\n%.200s", out)
	}
}
