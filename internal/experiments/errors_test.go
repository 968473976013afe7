package experiments

import (
	"strings"
	"testing"
)

// TestScenarioValidationErrors pins the error paths fuzzing uncovered:
// malformed scenarios must return a descriptive error naming the bad
// field instead of panicking deep inside the substrate or silently
// producing an empty run.
func TestScenarioValidationErrors(t *testing.T) {
	base := func() Scenario {
		return Scenario{
			Name: "bad", Proto: JTP, Topo: Linear, Nodes: 4, Seconds: 100,
			Flows: []FlowSpec{{Src: 0, Dst: 3, StartAt: 10}},
		}
	}
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"too few nodes", func(sc *Scenario) { sc.Nodes = 1 }, "nodes"},
		{"beyond node id space", func(sc *Scenario) {
			sc.Nodes = 1<<16 + 1
			sc.Flows[0].Src, sc.Flows[0].Dst = 1<<16-1, 1<<16
		}, "nodes"},
		{"zero seconds", func(sc *Scenario) { sc.Seconds = 0 }, "seconds"},
		{"negative speed", func(sc *Scenario) { sc.MobilitySpeed = -1 }, "mobilitySpeed"},
		{"endpoint out of range", func(sc *Scenario) { sc.Flows[0].Dst = 9 }, "endpoints"},
		{"src equals dst", func(sc *Scenario) { sc.Flows[0].Dst = 0 }, "src == dst"},
		{"bad tolerance", func(sc *Scenario) { sc.Flows[0].LossTolerance = 1.5 }, "lossTolerance"},
		{"negative start", func(sc *Scenario) { sc.Flows[0].StartAt = -1 }, "startAt"},
		{"flow never runs", func(sc *Scenario) { sc.Flows[0].StartAt = 100 }, "startAt"},
		{"negative packets", func(sc *Scenario) { sc.Flows[0].TotalPackets = -1 }, "totalPackets"},
		{"budget length", func(sc *Scenario) { sc.EnergyBudgets = []float64{1, 2} }, "energyBudgets"},
		{"negative budget", func(sc *Scenario) { sc.EnergyBudgets = []float64{1, 1, -1, 1} }, "energyBudgets"},
		{"event node range", func(sc *Scenario) { sc.Events = []NodeEvent{{At: 5, Node: 7, Down: true}} }, "events"},
		{"negative event time", func(sc *Scenario) { sc.Events = []NodeEvent{{At: -5, Node: 1, Down: true}} }, "events"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := base()
			c.mut(&sc)
			_, err := Run(sc)
			if err == nil {
				t.Fatal("Run accepted a malformed scenario")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
	// The base scenario itself must be fine.
	if _, err := Run(base()); err != nil {
		t.Fatalf("valid base scenario rejected: %v", err)
	}
}

// TestAssemble: Assemble applies the network half of the validation
// (the public facade relies on it) and returns a network with its
// driver attached but nothing scheduled until Start.
func TestAssemble(t *testing.T) {
	for _, c := range []struct {
		sc   Scenario
		want string
	}{
		{Scenario{Proto: JTP, Nodes: 1<<16 + 1}, "nodes"},
		{Scenario{Proto: JTP, Nodes: 4, MobilitySpeed: -1}, "mobilitySpeed"},
	} {
		if _, err := Assemble(c.sc); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Assemble(%+v) = %v, want an error naming %q", c.sc, err, c.want)
		}
	}

	sub, err := Assemble(Scenario{Proto: TCP, Topo: Random, Nodes: 8, MobilitySpeed: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Driver == nil || sub.Network.N() != 8 {
		t.Fatalf("substrate: driver %v, %d nodes", sub.Driver, sub.Network.N())
	}
	if n := sub.Engine.PendingEvents(); n != 0 {
		t.Fatalf("%d events pending before Start", n)
	}
	sub.Start()
	if sub.Engine.PendingEvents() == 0 {
		t.Fatal("Start scheduled nothing")
	}
}

// TestWorkloadCellErrors: a workload whose generation fails inside a
// campaign cell surfaces a descriptive per-cell error, not a panic and
// not an empty report.
func TestWorkloadCellErrors(t *testing.T) {
	spec, err := ParseBatchSpec([]byte(`{
		"protocols": ["jtp"],
		"workloads": [{"family": "chain", "nodes": 4, "churn": {"failures": 3}}],
		"runs": 1, "seconds": 100
	}`))
	if err != nil {
		t.Fatalf("spec should parse (generation, not parsing, fails): %v", err)
	}
	rep, execErr := spec.Execute(t.Context(), workers(1))
	if execErr != nil {
		t.Fatalf("Execute: %v", execErr)
	}
	if rep.Failures == 0 {
		t.Fatal("expected per-cell failures for impossible churn")
	}
	if got := rep.Err().Error(); !strings.Contains(got, "churn.failures") {
		t.Errorf("cell error %q does not name churn.failures", got)
	}
}
