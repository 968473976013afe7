package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// procResult is one child process, measured from outside.
type procResult struct {
	// Wall runs from just before the process starts until it has exited
	// and its standard output has been read to the end.
	Wall float64
	// CPU is user+system time of the child and every descendant it
	// waited for, from the wait4 rusage (Linux accounts it as
	// RUSAGE_BOTH), so a coordinator's workers are included.
	CPU float64
	// RSSMB is the largest resident set of any process in that tree.
	RSSMB    float64
	ExitCode int
	Stdout   []byte
	Stderr   []byte
}

// childTimeout bounds any single child; the largest timed run takes a
// few seconds, a cold `go build` well under a minute.
const childTimeout = 150 * time.Second

// scrubbedEnv is the parent's environment without anything that would
// steer the program or the Go runtime (JTPSIM_*, GOMAXPROCS, GOGC, ...),
// plus extra. Build caches and temporary files are pointed inside the
// checkout by the caller.
func scrubbedEnv(extra ...string) []string {
	var env []string
	for _, kv := range os.Environ() {
		name, _, _ := strings.Cut(kv, "=")
		switch {
		case strings.HasPrefix(name, "JTPSIM_"):
		case name == "GOMAXPROCS", name == "GOGC", name == "GOMEMLIMIT", name == "GODEBUG", name == "GOFLAGS":
		case name == "GOCACHE", name == "GOTMPDIR", name == "TMPDIR", name == "GOTOOLCHAIN":
		default:
			env = append(env, kv)
		}
	}
	return append(env, extra...)
}

// runProc runs one child to completion in dir and measures it. A non-zero
// exit is reported in ExitCode, not as an error; err is for a child that
// could not be started, was killed by the timeout, or died on a signal.
func runProc(ctx context.Context, dir string, env []string, bin string, args ...string) (procResult, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	cmd.Env = env
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	// A coordinator run has grandchildren: kill the whole group on
	// timeout so none outlives the benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	// Do not wait forever on a pipe a stray descendant still holds.
	cmd.WaitDelay = 5 * time.Second

	start := time.Now()
	err := cmd.Run()
	res := procResult{Wall: time.Since(start).Seconds(), Stdout: stdout.Bytes(), Stderr: stderr.Bytes()}
	if cmd.ProcessState != nil {
		res.ExitCode = cmd.ProcessState.ExitCode()
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			res.CPU = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
			res.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	var exitErr *exec.ExitError
	if errors.As(err, &exitErr) && exitErr.ExitCode() > 0 {
		return res, nil
	}
	if err != nil {
		return res, fmt.Errorf("running %s %s: %w", bin, strings.Join(args, " "), err)
	}
	return res, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// tail returns the last few lines of a child's stderr for a diagnostic.
func tail(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 6 {
		lines = lines[len(lines)-6:]
	}
	return strings.Join(lines, " | ")
}

// Spans -----------------------------------------------------------------

// span is one timed interval of the benchmark. Spans are kept in memory
// and written to bench/out/trace.json when the benchmark ends.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // 0 = root
	Name     string  `json:"name"`
	Workload string  `json:"workload,omitempty"`
	StartMS  float64 `json:"start_ms"`
	EndMS    float64 `json:"end_ms"`
	// SelfMS is the span's duration minus what its children cover;
	// filled in when the trace is written.
	SelfMS float64 `json:"self_ms"`
}

type tracer struct {
	t0    time.Time
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() * 1e3 }

// start opens a span under parent (0 for a root) and returns its id.
func (t *tracer) start(parent int, name, workload string) int {
	s := &span{ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: workload, StartMS: t.now()}
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) end(id int) { t.spans[id-1].EndMS = t.now() }

// add records an already measured child interval, given in milliseconds
// relative to the parent's start (the probe program reports its spans so).
func (t *tracer) add(parent int, name, workload string, relStartMS, relEndMS float64) {
	base := t.spans[parent-1].StartMS
	t.spans = append(t.spans, &span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: workload,
		StartMS: base + relStartMS, EndMS: base + relEndMS,
	})
}

// finish computes every span's self time. Children of one parent never
// overlap here (the benchmark is a closed loop), so covered time is a sum.
func (t *tracer) finish() []*span {
	for _, s := range t.spans {
		s.SelfMS = s.EndMS - s.StartMS
	}
	for _, s := range t.spans {
		if s.Parent > 0 {
			t.spans[s.Parent-1].SelfMS -= s.EndMS - s.StartMS
		}
	}
	return t.spans
}
