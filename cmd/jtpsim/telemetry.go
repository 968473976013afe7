package main

// Live campaign telemetry for every jtpsim campaign, riding the deterministic
// in-order progress stream of the campaign engine:
//
//	jtpsim -exp fig9 -telemetry fig9.tel.jsonl   # one JSON line per run
//	jtpsim -exp fig9 -progress                   # stderr ticker with ETA
//	jtpsim -exp fig9 -debug-addr :8484           # live pprof + expvar
//
// The flags compose: -debug-addr serves /debug/pprof/* and /debug/vars
// (expvar) on the standard mux, with a "jtpsim_campaign" variable holding
// the folded counter aggregate and progress state so `curl
// host:8484/debug/vars` mid-campaign shows where the simulations are.
// None of this perturbs results: counters ride the sample stream under
// campaign.TelemetryPrefix and are folded outside the observables, and
// the goldens are byte-identical with telemetry on or off.

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"strings"
	"sync"
	"time"

	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/experiments"
	"github.com/javelen/jtp/internal/obs"
)

var (
	telemetryPath string
	progressFlag  bool
	debugAddr     string

	telemetryFile *os.File
	telemetryEnc  *json.Encoder

	// telState is the folded aggregate served via expvar. OnProgress
	// ticks arrive one at a time (the campaign aggregator serializes
	// them), but the debug HTTP goroutine reads concurrently.
	telState struct {
		sync.Mutex
		Campaign   string
		Done       int
		Total      int
		Failures   int
		RunsPerSec float64
		ETASeconds float64
		Elapsed    float64
		Counters   map[string]float64
	}

	lastProgressPrint time.Time
	expvarPublishOnce sync.Once
)

// addTelemetryFlags registers the telemetry flags on a FlagSet.
func addTelemetryFlags(fs *flag.FlagSet) {
	fs.StringVar(&telemetryPath, "telemetry", "", "write per-run telemetry as JSON lines to this file")
	fs.BoolVar(&progressFlag, "progress", false, "print campaign progress and ETA to stderr")
	fs.StringVar(&debugAddr, "debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. :8484)")
}

// telemetryLine is one JSONL record: the run's identity within the
// campaign sweep plus its counter snapshot.
type telemetryLine struct {
	Campaign    string             `json:"campaign"`
	Index       int                `json:"index"`
	Cell        string             `json:"cell"`
	Run         int                `json:"run"`
	Seed        int64              `json:"seed"`
	WallSeconds float64            `json:"wall_seconds"`
	Error       string             `json:"error,omitempty"`
	Counters    map[string]float64 `json:"counters,omitempty"`
}

// startTelemetry opens the sinks selected by the flags and wires them
// into opt. Call stopTelemetry (deferred) to flush.
func startTelemetry(opt *experiments.Options) error {
	if telemetryPath != "" {
		f, err := os.Create(telemetryPath)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		telemetryFile = f
		telemetryEnc = json.NewEncoder(f)
	}
	if debugAddr != "" {
		bound, err := startDebugServer(debugAddr)
		if err != nil {
			return fmt.Errorf("debug-addr: %w", err)
		}
		fmt.Fprintf(os.Stderr, "jtpsim: debug server on http://%s/debug/pprof/ and /debug/vars\n", bound)
	}
	// Counter collection is only worth its (small) cost when something
	// consumes the counters; a bare -progress ticker needs just the
	// stream itself.
	opt.Telemetry = telemetryPath != "" || debugAddr != ""
	if telemetryPath != "" || progressFlag || debugAddr != "" {
		// Compose with any hook already chained (the -status heartbeat
		// writer); telemetry first, so a chaos suicide in the status hook
		// still sees this run's telemetry line flushed.
		if prev := opt.OnProgress; prev != nil {
			opt.OnProgress = func(p campaign.Progress) {
				onCampaignProgress(p)
				prev(p)
			}
		} else {
			opt.OnProgress = onCampaignProgress
		}
	}
	return nil
}

// stopTelemetry flushes and closes the sinks.
func stopTelemetry() {
	if telemetryFile != nil {
		telemetryFile.Close()
		fmt.Fprintf(os.Stderr, "jtpsim: wrote telemetry %s\n", telemetryPath)
		telemetryFile = nil
		telemetryEnc = nil
	}
}

// onCampaignProgress consumes one tick of the deterministic progress
// stream: emit the JSONL record, fold into the expvar aggregate, and
// rate-limit the stderr ticker.
func onCampaignProgress(p campaign.Progress) {
	counters := telemetryCounters(p.Sample)

	if telemetryEnc != nil {
		line := telemetryLine{
			Campaign:    p.Campaign,
			Index:       p.Spec.Index,
			Cell:        p.Spec.Cell.Key(),
			Run:         p.Spec.Run,
			Seed:        p.Spec.Seed,
			WallSeconds: p.RunWallSeconds,
			Counters:    counters,
		}
		if p.Err != nil {
			line.Error = p.Err.Error()
		}
		if err := telemetryEnc.Encode(line); err != nil {
			fmt.Fprintf(os.Stderr, "jtpsim: telemetry: %v\n", err)
		}
	}

	telState.Lock()
	telState.Campaign = p.Campaign
	telState.Done, telState.Total, telState.Failures = p.Done, p.Total, p.Failures
	telState.RunsPerSec, telState.ETASeconds, telState.Elapsed = p.RunsPerSec, p.ETASeconds, p.ElapsedSeconds
	if telState.Counters == nil {
		telState.Counters = map[string]float64{}
	}
	for k, v := range counters {
		if obs.IsMax(k) {
			if v > telState.Counters[k] {
				telState.Counters[k] = v
			} else if _, ok := telState.Counters[k]; !ok {
				telState.Counters[k] = v
			}
		} else {
			telState.Counters[k] += v
		}
	}
	telState.Unlock()

	if progressFlag {
		now := time.Now()
		final := p.Done == p.Total
		if final || now.Sub(lastProgressPrint) >= 500*time.Millisecond {
			lastProgressPrint = now
			fmt.Fprintf(os.Stderr, "jtpsim: %s %d/%d runs (%.1f runs/s, ETA %s, failures %d)\n",
				p.Campaign, p.Done, p.Total, p.RunsPerSec, formatETA(p.ETASeconds), p.Failures)
		}
	}
}

// telemetryCounters extracts the tel/-prefixed counters from a sample.
func telemetryCounters(s campaign.Sample) map[string]float64 {
	var out map[string]float64
	for k, v := range s {
		if strings.HasPrefix(k, campaign.TelemetryPrefix) {
			if out == nil {
				out = make(map[string]float64, len(s))
			}
			out[k[len(campaign.TelemetryPrefix):]] = v
		}
	}
	return out
}

// formatETA renders an ETA compactly.
func formatETA(sec float64) string {
	if sec <= 0 {
		return "0s"
	}
	d := time.Duration(sec * float64(time.Second)).Round(time.Second)
	return d.String()
}

// startDebugServer binds addr, publishes the campaign aggregate as the
// expvar "jtpsim_campaign", and serves the default mux (which carries
// /debug/pprof from net/http/pprof and /debug/vars from expvar) in the
// background. Returns the bound address so ":0" works in tests.
func startDebugServer(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	expvarPublishOnce.Do(func() {
		expvar.Publish("jtpsim_campaign", expvar.Func(func() any {
			telState.Lock()
			defer telState.Unlock()
			counters := make(map[string]float64, len(telState.Counters))
			for k, v := range telState.Counters {
				counters[k] = v
			}
			return map[string]any{
				"campaign":     telState.Campaign,
				"done":         telState.Done,
				"total":        telState.Total,
				"failures":     telState.Failures,
				"runs_per_sec": telState.RunsPerSec,
				"eta_seconds":  telState.ETASeconds,
				"elapsed":      telState.Elapsed,
				"counters":     counters,
			}
		}))
	})
	go http.Serve(ln, nil)
	return ln.Addr().String(), nil
}
