package main

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"

	"github.com/javelen/jtp/internal/campaign"
)

// TestDebugServerServesCampaignState boots the -debug-addr server on an
// ephemeral port, feeds the progress hook, and checks that /debug/vars
// exposes the folded campaign state the way a mid-campaign curl would
// see it (the PR's acceptance probe).
func TestDebugServerServesCampaignState(t *testing.T) {
	var o options
	o.onCampaignProgress(campaign.Progress{
		Campaign: "debug-test",
		Sample: campaign.Sample{
			"goodput": 1,
			campaign.TelemetryPrefix + "sim_events_fired":    1000,
			campaign.TelemetryPrefix + "mac_queue_depth_hwm": 7,
		},
		Done: 3, Total: 10, RunsPerSec: 5, ETASeconds: 1.4,
	})
	o.onCampaignProgress(campaign.Progress{
		Campaign: "debug-test",
		Sample: campaign.Sample{
			campaign.TelemetryPrefix + "sim_events_fired":    500,
			campaign.TelemetryPrefix + "mac_queue_depth_hwm": 3,
		},
		Done: 4, Total: 10, RunsPerSec: 6, ETASeconds: 1.0,
	})

	addr, err := startDebugServer("127.0.0.1:0", &o.state)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		Campaign struct {
			Campaign string             `json:"campaign"`
			Done     int                `json:"done"`
			Total    int                `json:"total"`
			Counters map[string]float64 `json:"counters"`
		} `json:"jtpsim_campaign"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	c := vars.Campaign
	if c.Campaign != "debug-test" || c.Done != 4 || c.Total != 10 {
		t.Fatalf("campaign state = %+v", c)
	}
	if c.Counters["sim_events_fired"] != 1500 {
		t.Fatalf("summed counter = %v, want 1500", c.Counters["sim_events_fired"])
	}
	if c.Counters["mac_queue_depth_hwm"] != 7 {
		t.Fatalf("hwm counter = %v, want max 7", c.Counters["mac_queue_depth_hwm"])
	}

	// The pprof index must be mounted on the same mux.
	resp2, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", resp2.StatusCode)
	}

	// expvar.Publish panics on duplicate names; a second server (e.g. a
	// retried -debug-addr) must reuse the registration.
	if _, err := startDebugServer("127.0.0.1:0", &o.state); err != nil {
		t.Fatal(err)
	}

	// Serialized hook delivery is a campaign-engine invariant, but the
	// expvar reader is concurrent; keep the race detector honest.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		http.Get("http://" + addr + "/debug/vars")
	}()
	o.onCampaignProgress(campaign.Progress{Campaign: "debug-test", Done: 5, Total: 10})
	wg.Wait()
}

func TestTelemetryCountersStripPrefix(t *testing.T) {
	s := campaign.Sample{
		"goodput":                              2,
		campaign.TelemetryPrefix + "pool_gets": 9,
	}
	got := telemetryCounters(s)
	if len(got) != 1 || got["pool_gets"] != 9 {
		t.Fatalf("telemetryCounters = %v", got)
	}
	if telemetryCounters(campaign.Sample{"goodput": 2}) != nil {
		t.Fatal("no tel/ keys must yield nil")
	}
}

func TestFormatETA(t *testing.T) {
	cases := map[float64]string{0: "0s", -3: "0s", 1.4: "1s", 90: "1m30s", 3600: "1h0m0s"}
	for in, want := range cases {
		if got := formatETA(in); got != want {
			t.Fatalf("formatETA(%v) = %q, want %q", in, got, want)
		}
	}
}
