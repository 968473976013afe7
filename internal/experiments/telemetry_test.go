package experiments

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/workload"
)

// withTelemetry returns opt with run telemetry enabled.
func withTelemetry(opt Options) Options {
	opt.Telemetry = true
	return opt
}

// fig9TelemetryCSV renders the canonical small fig9 campaign under opt.
func fig9TelemetryCSV(t *testing.T, opt Options) []byte {
	return figureCSV(t, Fig9(fig9GoldenCfg()), opt)
}

// TestTelemetryGoldenByteIdentity: enabling telemetry collection must
// not move a single byte of the scientific output, at any worker count.
// The collected counters ride the campaign stream under the tel/ prefix
// and are folded outside the observable aggregates, and collecting them
// may not touch the engine RNG or event order.
func TestTelemetryGoldenByteIdentity(t *testing.T) {
	plain := fig9TelemetryCSV(t, workers(1))
	var ticks int
	for _, par := range []int{1, 8} {
		opt := withTelemetry(workers(par))
		opt.OnProgress = func(campaign.Progress) { ticks++ }
		got := fig9TelemetryCSV(t, opt)
		if !bytes.Equal(got, plain) {
			t.Fatalf("fig9 CSV changed with telemetry on at par %d:\n--- telemetry ---\n%s\n--- plain ---\n%s", par, got, plain)
		}
	}
	// 2 cells × 2 runs × 3 protocols × 2 worker counts.
	if ticks != 24 {
		t.Fatalf("progress ticks = %d, want 24", ticks)
	}
	// And the committed golden stays authoritative.
	checkGolden(t, "fig9.csv", plain)
}

// TestTelemetryReportCounters runs a small workload campaign with
// telemetry on and checks that the report carries a meaningful counter
// set: kernel events, MAC activity, routing cache traffic and pool
// recycling must all be visible, and the CSV must match the plain run.
func TestTelemetryReportCounters(t *testing.T) {
	spec := func() *BatchSpec {
		return &BatchSpec{
			Name:      "tel-batch",
			Protocols: []string{string(JTP)},
			Workloads: []workload.Spec{
				{Family: workload.Chain, Nodes: 5, Traffic: workload.Single, TotalPackets: 30, Seconds: 200},
			},
			Runs: 2,
			Seed: 7,
		}
	}
	plainRep, err := spec().Execute(context.Background(), workers(1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := spec().Execute(context.Background(), withTelemetry(workers(8)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.CSV(), plainRep.CSV(); got != want {
		t.Fatalf("batch CSV changed with telemetry on:\n%s\nvs\n%s", got, want)
	}
	if plainRep.TelemetryNames() != nil {
		t.Fatal("telemetry collected while it was off")
	}

	wantPositive := []string{
		"sim_events_scheduled", "sim_events_fired",
		"mac_enqueues", "mac_tx_attempts", "mac_tx_success",
		"route_fills", "route_views_consulted", "route_bfs_computes", "route_adj_captures", "route_adj_snapshots_hwm",
		"pool_gets", "pool_puts",
		"energy_tx_nj",
	}
	for _, c := range rep.Cells {
		if len(c.Telemetry) == 0 {
			t.Fatalf("cell %v has no telemetry", c.Cell.Key())
		}
		for _, k := range wantPositive {
			if c.Telemetry[k] <= 0 {
				t.Errorf("cell %v: %s = %v, want > 0", c.Cell.Key(), k, c.Telemetry[k])
			}
		}
		// Gauges fold as maxima and must be sane: heap depth and queue
		// high-water marks are small positive numbers, not sums.
		if hwm := c.Telemetry["sim_heap_depth_hwm"]; hwm <= 0 || hwm > 10000 {
			t.Errorf("cell %v: sim_heap_depth_hwm = %v, not a plausible maximum", c.Cell.Key(), hwm)
		}
		// Refresh accounting: a fill is a hit, consulted, unconsulted, or
		// still pending at the end of the run (at most one per router) —
		// never two of them — and the evictions and the unconsulted count
		// are part of the schema even when zero. Trees are started at
		// most once per destination per snapshot.
		for _, k := range []string{"route_cache_hits", "route_cache_evictions", "route_views_consulted", "route_views_unconsulted"} {
			if _, ok := c.Telemetry[k]; !ok {
				t.Errorf("cell %v: %s missing", c.Cell.Key(), k)
			}
		}
		tel := c.Telemetry
		const nodes = 5
		ended := tel["route_cache_hits"] + tel["route_views_consulted"] + tel["route_views_unconsulted"]
		if ended > tel["route_fills"] || tel["route_fills"]-ended > float64(nodes*c.Runs) {
			t.Errorf("cell %v: route accounting inconsistent: %v", c.Cell.Key(), tel)
		}
		if tel["route_bfs_computes"] > nodes*tel["route_adj_captures"] {
			t.Errorf("cell %v: more trees than destinations per snapshot: %v", c.Cell.Key(), tel)
		}
		if tel["route_adj_captures"] > tel["route_fills"] || tel["route_adj_snapshots_hwm"] > tel["route_adj_captures"] {
			t.Errorf("cell %v: snapshot accounting inconsistent: %v", c.Cell.Key(), tel)
		}
	}
	if rep.TelemetryCSV() == "" {
		t.Fatal("empty telemetry CSV")
	}
}

// TestTelemetryRunDeterminism: two direct runs of the same scenario must
// produce identical counter maps — telemetry is part of the
// deterministic output, not a wall-clock artifact.
func TestTelemetryRunDeterminism(t *testing.T) {
	run := func() map[string]uint64 {
		sc := Scenario{
			Name:      "tel-determinism",
			Proto:     JTP,
			Topo:      Linear,
			Nodes:     4,
			Seconds:   150,
			Seed:      99,
			Flows:     []FlowSpec{{Src: 0, Dst: 3, StartAt: 20}},
			Telemetry: true,
		}
		rec, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Telemetry) == 0 {
			t.Fatal("no telemetry on RunRecord")
		}
		return rec.Telemetry
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("counter %s: %d vs %d", k, v, b[k])
		}
	}
	if a["ijtp_cache_served"] == 0 && a["mac_drops_queue"]+a["mac_drops_retries"] > 0 {
		// Lossy chain with drops should exercise the iJTP cache path at
		// least occasionally; this is informational, not fatal.
		t.Logf("note: drops occurred but no cache serves: %v", a)
	}
}

// TestTelemetryKeysIndependentOfRunHistory pins that a run's telemetry
// is its own: a TCP run that follows a JTP run on the same campaign
// worker reports exactly the keys (and values) it reports when run
// alone — none of the JTP run's cache_*/ijtp_* keys leak in as zeros —
// and the same seed twice gives equal maps. The scenario is mobile,
// multi-flow and budget-constrained, the fullest exercise of the lazily
// folded link substrate.
func TestTelemetryKeysIndependentOfRunHistory(t *testing.T) {
	scenario := func(proto Protocol) Scenario {
		budgets := make([]float64, 12)
		for i := range budgets {
			budgets[i] = 0.8 // joules; tight enough that deaths occur
		}
		return Scenario{
			Name:          "tel-history",
			Proto:         proto,
			Topo:          Random,
			Nodes:         12,
			MobilitySpeed: 1,
			Seconds:       300,
			Seed:          7,
			EnergyBudgets: budgets,
			Flows: []FlowSpec{
				{Src: -1, Dst: -1, StartAt: 20},
				{Src: -1, Dst: -1, StartAt: 30},
				{Src: -1, Dst: -1, StartAt: 40},
			},
		}
	}
	fresh := scenario(TCP)
	fresh.Telemetry = true
	rec, err := Run(fresh)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for k, v := range rec.Telemetry {
		want[k] = float64(v)
	}

	// One worker runs the JTP cell twice, then the TCP cell twice.
	opt := withTelemetry(workers(1))
	got := map[string][]map[string]float64{}
	opt.OnProgress = func(p campaign.Progress) {
		if p.Err != nil {
			t.Error(p.Err)
			return
		}
		tel := map[string]float64{}
		for k, v := range p.Sample {
			if name, ok := strings.CutPrefix(k, campaign.TelemetryPrefix); ok {
				tel[name] = v
			}
		}
		proto := p.Spec.Cell.String("proto")
		got[proto] = append(got[proto], tel)
	}
	m := campaign.Matrix{
		Name: "tel-history",
		Axes: []campaign.Axis{{Name: "proto", Values: protocolValues([]Protocol{JTP, TCP})}},
		Runs: 2,
	}
	if _, err := execute(context.Background(), m, opt,
		func(cell campaign.Cell, _ int64) (Scenario, error) {
			return scenario(Protocol(cell.String("proto"))), nil
		},
		func(*metrics.RunRecord) campaign.Sample { return campaign.Sample{} }); err != nil {
		t.Fatal(err)
	}
	if _, ok := got[string(JTP)][0]["ijtp_cache_served"]; !ok {
		t.Fatal("JTP run exported no ijtp_cache_served; the leak this test guards against cannot show")
	}
	for i, tel := range got[string(TCP)] {
		if !reflect.DeepEqual(tel, want) {
			t.Fatalf("TCP run %d after a JTP run differs from the same run alone:\n%s", i, telemetryDiff(want, tel))
		}
	}
}

// telemetryDiff renders the keys on which two snapshots disagree, sorted.
func telemetryDiff(want, got map[string]float64) string {
	var lines []string
	for k, v := range want {
		if g, ok := got[k]; !ok {
			lines = append(lines, fmt.Sprintf("  %s: want %v, key absent", k, v))
		} else if g != v {
			lines = append(lines, fmt.Sprintf("  %s: want %v, got %v", k, v, g))
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			lines = append(lines, fmt.Sprintf("  %s: unexpected key (value %v)", k, g))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
