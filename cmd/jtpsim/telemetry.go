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
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/experiments"
	"github.com/javelen/jtp/internal/obs"
)

// campaignState is the folded campaign aggregate -debug-addr serves.
// Progress ticks arrive one at a time (the campaign aggregator
// serializes them), but the debug HTTP goroutine reads concurrently.
type campaignState struct {
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

// debugVars is the process-wide expvar publication "jtpsim_campaign".
// expvar names are global to the process and publish once, so the
// variable serves the state of the latest debug server started.
var debugVars struct {
	once  sync.Once
	state atomic.Pointer[campaignState]
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

// startTelemetry opens the sinks selected by the flags and turns on run
// telemetry in opt when they consume it. Call stopSinks (deferred) to
// flush.
func (o *options) startTelemetry(opt *experiments.Options) error {
	if o.telemetry != "" {
		f, err := os.Create(o.telemetry)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		o.telemetryFile = f
		o.telemetryEnc = json.NewEncoder(f)
	}
	if o.debugAddr != "" {
		bound, err := startDebugServer(o.debugAddr, &o.state)
		if err != nil {
			return fmt.Errorf("debug-addr: %w", err)
		}
		fmt.Fprintf(os.Stderr, "jtpsim: debug server on http://%s/debug/pprof/ and /debug/vars\n", bound)
	}
	// Counter collection is only worth its (small) cost when something
	// consumes the counters; a bare -progress ticker needs just the
	// stream itself.
	opt.Telemetry = o.telemetry != "" || o.debugAddr != ""
	return nil
}

// stopSinks flushes and closes the telemetry sink.
func (o *options) stopSinks() {
	if o.telemetryFile != nil {
		o.telemetryFile.Close()
		fmt.Fprintf(os.Stderr, "jtpsim: wrote telemetry %s\n", o.telemetry)
		o.telemetryFile = nil
		o.telemetryEnc = nil
	}
}

// onCampaignProgress consumes one tick of the deterministic progress
// stream: emit the JSONL record, fold into the expvar aggregate, and
// rate-limit the stderr ticker.
func (o *options) onCampaignProgress(p campaign.Progress) {
	counters := telemetryCounters(p.Sample)

	if o.telemetryEnc != nil {
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
		if err := o.telemetryEnc.Encode(line); err != nil {
			fmt.Fprintf(os.Stderr, "jtpsim: telemetry: %v\n", err)
		}
	}

	st := &o.state
	st.Lock()
	st.Campaign = p.Campaign
	st.Done, st.Total, st.Failures = p.Done, p.Total, p.Failures
	st.RunsPerSec, st.ETASeconds, st.Elapsed = p.RunsPerSec, p.ETASeconds, p.ElapsedSeconds
	if st.Counters == nil {
		st.Counters = map[string]float64{}
	}
	for k, v := range counters {
		obs.Fold(st.Counters, k, v)
	}
	st.Unlock()

	if o.progress {
		now := time.Now()
		final := p.Done == p.Total
		if final || now.Sub(o.lastProgressPrint) >= 500*time.Millisecond {
			o.lastProgressPrint = now
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

// startDebugServer binds addr, publishes state as the expvar
// "jtpsim_campaign", and serves the default mux (which carries
// /debug/pprof from net/http/pprof and /debug/vars from expvar) in the
// background. Returns the bound address so ":0" works in tests.
func startDebugServer(addr string, state *campaignState) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	debugVars.state.Store(state)
	debugVars.once.Do(func() {
		expvar.Publish("jtpsim_campaign", expvar.Func(func() any {
			st := debugVars.state.Load()
			st.Lock()
			defer st.Unlock()
			counters := make(map[string]float64, len(st.Counters))
			for k, v := range st.Counters {
				counters[k] = v
			}
			return map[string]any{
				"campaign":     st.Campaign,
				"done":         st.Done,
				"total":        st.Total,
				"failures":     st.Failures,
				"runs_per_sec": st.RunsPerSec,
				"eta_seconds":  st.ETASeconds,
				"elapsed":      st.Elapsed,
				"counters":     counters,
			}
		}))
	})
	go http.Serve(ln, nil)
	return ln.Addr().String(), nil
}
