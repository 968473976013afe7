package experiments

import (
	"context"
	"testing"

	"github.com/javelen/jtp/internal/stats"
)

// equivFig9Cfg is a small but non-trivial Fig 9 configuration used to
// check campaign-vs-serial equivalence.
func equivFig9Cfg() Fig9Config {
	return Fig9Config{
		Sizes:     []int{2, 4},
		Runs:      2,
		Seconds:   400,
		Warmup:    60,
		Protocols: []Protocol{JTP, TCP},
		Seed:      42,
	}
}

// serialCell is one (protocol, netSize) cell of the serial reference.
type serialCell struct {
	proto                    Protocol
	nodes                    int
	energyPerBit, goodputBps stats.Running
}

// serialFig9 is the pre-campaign reference implementation: the exact
// nested loops (protocol outer, size inner, runs innermost, seed
// schedule Seed + run·1009) and run scenario that Fig9 used before the
// refactor.
func serialFig9(cfg Fig9Config) []*serialCell {
	var out []*serialCell
	for _, proto := range cfg.Protocols {
		for _, n := range cfg.Sizes {
			pt := &serialCell{proto: proto, nodes: n}
			for run := 0; run < cfg.Runs; run++ {
				seed := cfg.Seed + int64(run)*1009
				rec := must(Run(Scenario{
					Name:    "fig9",
					Proto:   proto,
					Topo:    Linear,
					Nodes:   n,
					Seconds: cfg.Seconds,
					Seed:    seed,
					Flows: []FlowSpec{
						{Src: 0, Dst: n - 1, StartAt: cfg.Warmup + float64(seed%97)/97.0*100},
						{Src: n - 1, Dst: 0, StartAt: cfg.Warmup + float64(seed%89)/89.0*100},
					},
				}))
				pt.energyPerBit.Add(rec.EnergyPerBit())
				pt.goodputBps.Add(rec.MeanGoodputBps())
			}
			out = append(out, pt)
		}
	}
	return out
}

// requireRunningEqual compares two aggregates bit-for-bit.
func requireRunningEqual(t *testing.T, label string, a, b stats.Running) {
	t.Helper()
	if a.N() != b.N() || a.Mean() != b.Mean() || a.CI95() != b.CI95() ||
		a.Min() != b.Min() || a.Max() != b.Max() {
		t.Errorf("%s: campaign aggregate differs from serial: n=%d/%d mean=%v/%v ci=%v/%v",
			label, a.N(), b.N(), a.Mean(), b.Mean(), a.CI95(), b.CI95())
	}
}

// TestFig9CampaignMatchesSerial pins the acceptance criterion: the
// campaign engine must reproduce the pre-refactor serial outputs
// exactly, for any worker count.
func TestFig9CampaignMatchesSerial(t *testing.T) {
	cfg := equivFig9Cfg()
	want := serialFig9(cfg)
	for _, par := range []int{1, 4} {
		got := figureReport(t, Fig9(cfg), workers(par)).Cells
		if len(got) != len(want) {
			t.Fatalf("par=%d: %d cells, want %d", par, len(got), len(want))
		}
		for i, w := range want {
			c := got[i]
			if Protocol(c.Cell.String("proto")) != w.proto || c.Cell.Int("netSize") != w.nodes {
				t.Fatalf("par=%d: cell %d is %s, want (%s,%d)", par, i, c.Cell.Key(), w.proto, w.nodes)
			}
			requireRunningEqual(t, string(w.proto), c.Running(obsEnergyPerBit), w.energyPerBit)
			requireRunningEqual(t, string(w.proto), c.Running(obsGoodputBps), w.goodputBps)
		}
	}
}

// TestFig10SeedScheduleUnchanged checks the protocol-independent seed
// rule survives on the campaign path: same (run, size) seed for every
// protocol, so all protocols see identical placements.
func TestFig10SeedScheduleUnchanged(t *testing.T) {
	cfg := Fig10Config{
		Sizes: []int{10, 15}, Flows: 2, Runs: 2,
		Seconds: 100, Warmup: 20,
		Protocols: []Protocol{JTP, TCP}, Seed: 101,
	}
	m := Fig10(cfg).Matrix
	seeds := map[string]map[int]int64{} // netSize/run -> proto -> seed
	for _, spec := range m.Expand() {
		key := spec.Cell.String("netSize")
		if seeds[key] == nil {
			seeds[key] = map[int]int64{}
		}
		if prev, ok := seeds[key][spec.Run]; ok && prev != spec.Seed {
			t.Fatalf("size %s run %d: seed differs across protocols (%d vs %d)",
				key, spec.Run, prev, spec.Seed)
		}
		seeds[key][spec.Run] = spec.Seed
	}
	if want := cfg.Seed + 0*8123 + 10; seeds["10"][0] != want {
		t.Fatalf("size 10 run 0 seed = %d, want %d", seeds["10"][0], want)
	}
}

func TestBatchSpecDefaultsAndValidation(t *testing.T) {
	b, err := ParseBatchSpec([]byte(`{}`))
	if err != nil {
		t.Fatalf("empty spec: %v", err)
	}
	if b.Name != "batch" || b.Topology != "linear" || b.Runs != 3 || b.Flows != 2 {
		t.Fatalf("defaults not applied: %+v", b)
	}
	m := b.Matrix()
	if m.NumCells() != 1 || m.NumRuns() != 3 {
		t.Fatalf("default matrix: cells=%d runs=%d", m.NumCells(), m.NumRuns())
	}

	bad := []string{
		`{"protocols":["quic"]}`,
		`{"topology":"mesh"}`,
		`{"nodes":[1]}`,
		`{"nodes":[6, 65537]}`,
		`{"lossTolerances":[1.5]}`,
		`{"mobilitySpeeds":[-1]}`,
		`{"cachePolicies":["mru"]}`,
		`{"channels":["underwater"]}`,
		`{"name": }`,
	}
	for _, js := range bad {
		if _, err := ParseBatchSpec([]byte(js)); err == nil {
			t.Errorf("spec %s accepted, want error", js)
		}
	}
	// The whole 16-bit node id space is usable.
	if _, err := ParseBatchSpec([]byte(`{"nodes":[65536]}`)); err != nil {
		t.Errorf("65536 nodes rejected: %v", err)
	}
}

// TestBatchExecuteSmoke runs a tiny 2-protocol × cache-policy matrix
// end to end and checks the report has sane, populated aggregates.
func TestBatchExecuteSmoke(t *testing.T) {
	b, err := ParseBatchSpec([]byte(`{
		"name": "smoke",
		"protocols": ["jtp", "jnc"],
		"nodes": [4],
		"cachePolicies": ["lru", "off"],
		"flows": 2,
		"runs": 2,
		"seconds": 300,
		"warmup": 50,
		"seed": 9
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Execute(context.Background(), workers(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 || rep.Runs != 8 {
		t.Fatalf("cells=%d runs=%d, want 4 cells / 8 runs", len(rep.Cells), rep.Runs)
	}
	for _, c := range rep.Cells {
		ep := c.Running("energy_per_bit")
		if ep.N() != 2 || ep.Mean() <= 0 {
			t.Errorf("cell %s: energy_per_bit n=%d mean=%g", c.Cell.Key(), ep.N(), ep.Mean())
		}
		gp := c.Running("goodput_bps")
		if gp.Mean() <= 0 {
			t.Errorf("cell %s: goodput %g", c.Cell.Key(), gp.Mean())
		}
	}
	// Determinism across worker counts holds for real simulations too,
	// not just the synthetic campaign tests.
	rep1, err := b.Execute(context.Background(), workers(1))
	if err != nil {
		t.Fatal(err)
	}
	js1, _ := rep1.JSON()
	jsN, _ := rep.JSON()
	if string(js1) != string(jsN) {
		t.Fatal("batch report differs between par=1 and par=4")
	}
}
