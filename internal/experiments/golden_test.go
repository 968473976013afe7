package experiments

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/transport/drivers"
	"github.com/javelen/jtp/internal/workload"
)

// update regenerates the golden files instead of comparing:
//
//	go test ./internal/experiments -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden trace files under testdata/golden")

// goldenPath returns the canonical location of one golden trace.
func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name)
}

// checkGolden compares got against the committed golden file (or
// rewrites it with -update). The files pin the exact CSV output of
// small-scale canonical campaigns: any numeric drift — a changed seed
// schedule, a modified protocol constant, a broken determinism
// contract — fails CI with a diff-able artifact.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from the committed golden output.\n--- got ---\n%s\n--- want ---\n%s\nIf the change is intentional, regenerate with: go test ./internal/experiments -run TestGolden -update",
			name, got, want)
	}
}

// figureCSV renders a figure campaign's tables, executed under opt, as
// one CSV document.
func figureCSV(t *testing.T, f Figure, opt Options) []byte {
	t.Helper()
	return tablesCSV(f.Tables(figureReport(t, f, opt))...)
}

// tablesCSV renders tables as one deterministic CSV document.
func tablesCSV(tables ...*metrics.Table) []byte {
	var b bytes.Buffer
	for _, tbl := range tables {
		if tbl.Title != "" {
			fmt.Fprintf(&b, "# %s\n", tbl.Title)
		}
		b.WriteString(tbl.CSV())
	}
	return b.Bytes()
}

// fig9GoldenCfg is the canonical small-scale Fig 9 campaign.
func fig9GoldenCfg() Fig9Config {
	return Fig9Config{
		Sizes:     []int{2, 4},
		Runs:      2,
		Seconds:   300,
		Warmup:    60,
		Protocols: []Protocol{JTP, ATP, TCP},
		Seed:      42,
	}
}

func TestGoldenFig9(t *testing.T) {
	checkGolden(t, "fig9.csv", figureCSV(t, Fig9(fig9GoldenCfg()), Options{}))
}

// TestGoldenFig9Telemetry pins the values of the canonical Fig 9
// campaign's telemetry, not just its key set: kernel events scheduled,
// fired and stopped, the heap-depth high-water mark, and every MAC,
// routing, pool and energy count. A kernel change that claims byte
// identity must leave these unchanged too.
func TestGoldenFig9Telemetry(t *testing.T) {
	rep := figureReport(t, Fig9(fig9GoldenCfg()), withTelemetry(Options{}))
	checkGolden(t, "fig9.telemetry.csv", []byte(rep.TelemetryCSV()))
}

// fig10GoldenCSV renders the canonical small-scale Fig 10 campaign at
// the given worker count.
func fig10GoldenCSV(t *testing.T, par int) []byte {
	cfg := Fig10Config{
		Sizes:     []int{10},
		Flows:     3,
		Runs:      2,
		Seconds:   400,
		Warmup:    100,
		Protocols: []Protocol{JTP, ATP, TCP},
		Seed:      101,
	}
	return figureCSV(t, Fig10(cfg), workers(par))
}

// fig11GoldenCSV renders the canonical small-scale Fig 11 campaign
// (mobility) at the given worker count.
func fig11GoldenCSV(t *testing.T, par int) []byte {
	cfg := Fig11Config{
		Nodes:     10,
		Speeds:    []float64{1},
		Flows:     3,
		Runs:      2,
		Seconds:   400,
		Warmup:    100,
		Protocols: []Protocol{JTP, ATP, TCP},
		Seed:      111,
	}
	return figureCSV(t, Fig11(cfg), workers(par))
}

func TestGoldenFig10(t *testing.T) {
	checkGolden(t, "fig10.csv", fig10GoldenCSV(t, 0))
}

func TestGoldenFig11(t *testing.T) {
	checkGolden(t, "fig11.csv", fig11GoldenCSV(t, 0))
}

// TestGoldenFig10ParByteIdentity and its Fig 11 twin prove the shared
// routing view cache is order-independent: with campaign workers racing
// over runs in any interleaving, the rendered CSV must stay
// byte-identical between par 1 and par 8 — and equal to the committed
// golden. Fig 11 is the load-bearing case: mobility makes every run
// exercise the epoch/invalidation machinery continuously. CI runs both
// under the race detector.
func TestGoldenFig10ParByteIdentity(t *testing.T) {
	p1, p8 := fig10GoldenCSV(t, 1), fig10GoldenCSV(t, 8)
	if !bytes.Equal(p1, p8) {
		t.Fatalf("fig10 CSV differs between par 1 and par 8:\n--- par1 ---\n%s\n--- par8 ---\n%s", p1, p8)
	}
	checkGolden(t, "fig10.csv", p8)
}

func TestGoldenFig11ParByteIdentity(t *testing.T) {
	p1, p8 := fig11GoldenCSV(t, 1), fig11GoldenCSV(t, 8)
	if !bytes.Equal(p1, p8) {
		t.Fatalf("fig11 CSV differs between par 1 and par 8:\n--- par1 ---\n%s\n--- par8 ---\n%s", p1, p8)
	}
	checkGolden(t, "fig11.csv", p8)
}

// The goldens below pin figs 3, 4, 6, 7 and table 2 on the configs whose
// shapes TestFig*Shape and TestTable2Smoke assert. Fig 4 is pinned twice:
// with its per-node chain length among the swept sizes and without it.

func fig3GoldenCfg() Fig3Config {
	return Fig3Config{
		Sizes:           []int{4, 6},
		Tolerances:      []float64{0, 0.20},
		TransferPackets: 120,
		Runs:            3,
		Seconds:         3000,
		Seed:            31,
	}
}

func fig4GoldenCfgs() []Fig4Config {
	out := []Fig4Config{{
		Sizes:           []int{3, 8},
		TransferPackets: 120,
		Runs:            3,
		Seconds:         4000,
		Seed:            41,
		PerNodeSize:     7,
	}}
	in := out[0]
	in.Sizes = []int{3, 7}
	return append(out, in)
}

func fig6GoldenCfg() Fig6Config {
	return Fig6Config{
		Sizes:           []int{6},
		CacheSizes:      []int{1, 8, 64},
		ConstantRates:   []float64{0.1},
		TransferPackets: 150,
		Runs:            3,
		Seconds:         4000,
		Seed:            61,
	}
}

func fig7GoldenCfg() Fig7Config {
	cfg := Fig7Defaults(0.3)
	cfg.Rates = []float64{0.05, 0.5}
	return cfg
}

func table2GoldenCfg() Table2Config {
	return Table2Config{
		Nodes:          14,
		Seconds:        400,
		MeanInterarriv: 400,
		TransferKB:     40,
		Runs:           2,
		Protocols:      []Protocol{JTP, ATP, TCP},
		Seed:           201,
	}
}

func TestGoldenFig3(t *testing.T) {
	checkGolden(t, "fig3.csv", figureCSV(t, Fig3(fig3GoldenCfg()), Options{}))
}

func TestGoldenFig4(t *testing.T) {
	var got []byte
	for _, cfg := range fig4GoldenCfgs() {
		got = append(got, figureCSV(t, Fig4(cfg), Options{})...)
	}
	checkGolden(t, "fig4.csv", got)
}

func TestGoldenFig6(t *testing.T) {
	checkGolden(t, "fig6.csv", figureCSV(t, Fig6(fig6GoldenCfg()), Options{}))
}

func TestGoldenFig7(t *testing.T) {
	checkGolden(t, "fig7.csv", figureCSV(t, Fig7(fig7GoldenCfg()), Options{}))
}

func TestGoldenTable2(t *testing.T) {
	checkGolden(t, "table2.csv", figureCSV(t, Table2(table2GoldenCfg()), Options{}))
}

// TestGoldenWorkloadCampaign pins a full generated-workload campaign:
// every driver over all four topology families, including a
// budget-constrained churning star. The CSV must be byte-identical at
// any worker count (campaign determinism) and across PRs (workload
// generation determinism).
func TestGoldenWorkloadCampaign(t *testing.T) {
	spec := &BatchSpec{
		Name:      "golden-workloads",
		Protocols: drivers.Names(),
		Workloads: []workload.Spec{
			{Family: workload.Chain, Nodes: 6, Traffic: workload.Single, TotalPackets: 40, Seconds: 250},
			{Family: workload.Grid, Nodes: 9, Traffic: workload.Sink, Flows: 3, TotalPackets: 30, Seconds: 250},
			{Family: workload.RGG, Nodes: 12, Traffic: workload.Pairs, Flows: 3, TotalPackets: 30, Seconds: 250},
			{Family: workload.Star, Nodes: 8, Traffic: workload.Staggered, Flows: 3, TotalPackets: 30, Seconds: 250,
				EnergyClasses: []workload.EnergyClass{{Weight: 2, BudgetJ: 0}, {Weight: 1, BudgetJ: 0.8}},
				Churn:         &workload.ChurnSpec{Failures: 1, MeanDowntime: 40}},
		},
		Runs: 2,
		Seed: 9,
	}
	rep, err := spec.Execute(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "workload-campaign.csv", []byte(rep.CSV()))
}

// TestGoldenRoutingWide pins routing on fields wider than the figure
// goldens reach: a 400-node grid, where equal-length paths tie
// everywhere and the next hop rests on the tie-break, carrying 16 random
// pairs, and a 256-node random field with 16 flows into one sink. Any
// change to which neighbor a router picks moves these bytes.
func TestGoldenRoutingWide(t *testing.T) {
	spec := &BatchSpec{
		Name:      "golden-routing-wide",
		Protocols: []string{string(JTP), string(TCP)},
		Workloads: []workload.Spec{
			{Family: workload.Grid, Nodes: 400, Traffic: workload.Pairs, Flows: 16, TotalPackets: 100, Seconds: 600},
			{Family: workload.RGG, Nodes: 256, Traffic: workload.Sink, Flows: 16, TotalPackets: 100, Seconds: 600},
		},
		Runs: 2,
		Seed: 11,
	}
	rep, err := spec.Execute(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "routing-wide.csv", []byte(rep.CSV()))
}
