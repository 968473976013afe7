package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// machine is carried by every result: a number without it cannot be
// compared with another (ROADMAP perf item (a)).
type machine struct {
	Commit     string `json:"commit"`
	GoOS       string `json:"goos"`
	GoArch     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// Par is the -par / -workers value handed to jtpsim.
	Par  int   `json:"par"`
	Seed int64 `json:"seed"`
	// SpinMS is the best of five timings of a fixed integer loop on one
	// core. It tells two machines (or a quiet and a busy hour of one
	// shared machine) apart; no metric is scaled by it.
	SpinMS float64 `json:"spin_ms"`
	Time   string  `json:"time"`
}

// defaultPar is the -par / -workers value handed to jtpsim: one less than
// the CPUs, at least 1 and at most 4. The spare CPU takes the Go runtime's
// background GC workers, the coordinator process and this driver, so the
// campaign's workers never queue behind them: at -par = nproc a repetition
// measured the scheduler (README "Sizes and noise").
func defaultPar() int {
	return min(max(runtime.NumCPU()-1, 1), 4)
}

func recordMachine(ctx context.Context, root string, par int, seed int64) machine {
	return machine{
		Commit:     gitCommit(ctx, root),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Par:        par,
		Seed:       seed,
		SpinMS:     spinCalibration(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit is best effort: the contract's checkout is not a repository.
func gitCommit(ctx context.Context, root string) string {
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	status := exec.CommandContext(ctx, "git", "status", "--porcelain", "--untracked-files=no")
	status.Dir = root
	if out, err := status.Output(); err == nil && len(out) > 0 {
		commit += "-dirty"
	}
	return commit
}

var spinSink uint64

func spinCalibration() float64 {
	best := 0.0
	for i := 0; i < 5; i++ {
		start := time.Now()
		x := uint64(1)
		for j := 0; j < 20_000_000; j++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		spinSink = x
		if ms := time.Since(start).Seconds() * 1e3; best == 0 || ms < best {
			best = ms
		}
	}
	return best
}

// historyLine is one -record entry: the machine and, per workload, the
// end-to-end values and what identifies the work done.
type historyLine struct {
	Machine   machine                    `json:"machine"`
	Workloads map[string]historyWorkload `json:"workloads"`
}

type historyWorkload struct {
	Sims         int                `json:"sims"`
	EventsFired  float64            `json:"events_fired"`
	OutputSHA256 string             `json:"output_sha256"`
	FailedShare  float64            `json:"failed_share"`
	EndToEnd     map[string]float64 `json:"end_to_end"`
}

// appendHistory adds one line to bench/history.jsonl.
func appendHistory(root string, res *result) error {
	if res.Smoke {
		return fmt.Errorf("-record refuses a -smoke result: its sizes are not the benchmark's")
	}
	line := historyLine{Machine: res.Machine, Workloads: map[string]historyWorkload{}}
	for _, w := range res.Workloads {
		hw := historyWorkload{
			Sims: w.Sims, EventsFired: w.EventsFired, OutputSHA256: w.OutputSHA256,
			FailedShare: w.FailedShare, EndToEnd: map[string]float64{},
		}
		for name, v := range w.EndToEnd {
			hw.EndToEnd[name] = v.Value
		}
		line.Workloads[w.Name] = hw
	}
	data, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encoding history line: %w", err)
	}
	path := filepath.Join(root, benchDir, "history.jsonl")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("opening history: %w", err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("appending history: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing history: %w", err)
	}
	return nil
}
