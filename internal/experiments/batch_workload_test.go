package experiments

import (
	"context"
	"strings"
	"testing"

	"github.com/javelen/jtp/internal/transport/drivers"
	"github.com/javelen/jtp/internal/workload"
)

// workloadBatchSpec returns a small driver × family matrix (every
// protocol over all four generated topology families).
func workloadBatchSpec() *BatchSpec {
	return &BatchSpec{
		Name:      "wl-test",
		Protocols: drivers.Names(),
		Workloads: []workload.Spec{
			{Family: workload.Chain, Nodes: 5, Traffic: workload.Single, TotalPackets: 30, Seconds: 200},
			{Family: workload.Grid, Nodes: 9, Traffic: workload.Sink, Flows: 2, TotalPackets: 20, Seconds: 200},
			{Family: workload.RGG, Nodes: 10, Traffic: workload.Pairs, Flows: 2, TotalPackets: 20, Seconds: 200},
			{Family: workload.Star, Nodes: 7, Traffic: workload.Staggered, Flows: 2, TotalPackets: 20, Seconds: 200},
		},
		Runs: 1,
		Seed: 13,
	}
}

// TestWorkloadBatchWorkerInvariance: a generated-workload campaign is
// byte-identical at any worker count — generation happens inside the
// run from the run's derived seed, so parallelism cannot perturb it.
func TestWorkloadBatchWorkerInvariance(t *testing.T) {
	var outs []string
	for _, par := range []int{1, 8} {
		rep, err := workloadBatchSpec().Execute(context.Background(), workers(par))
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		outs = append(outs, rep.CSV())
	}
	if outs[0] != outs[1] {
		t.Error("workload campaign CSV differs between par=1 and par=8")
	}
}

// TestWorkloadBatchAxes: the matrix replaces the netSize axis with the
// workload axis and crosses it with every protocol.
func TestWorkloadBatchAxes(t *testing.T) {
	spec := workloadBatchSpec()
	spec.applyDefaults()
	if err := spec.validate(); err != nil {
		t.Fatal(err)
	}
	m := spec.Matrix()
	names := m.AxisNames()
	if names[0] != "proto" || names[1] != "workload" {
		t.Fatalf("axes = %v, want proto then workload", names)
	}
	wantCells := len(drivers.Names()) * 4
	if m.NumCells() != wantCells {
		t.Fatalf("%d cells, want %d (drivers × families)", m.NumCells(), wantCells)
	}
	for _, name := range []string{"netSize"} {
		for _, ax := range names {
			if ax == name {
				t.Fatalf("workload matrix still has a %s axis", name)
			}
		}
	}
}

// TestWorkloadBatchDuplicateNamesRejected: two workloads resolving to
// the same name would make the axis ambiguous.
func TestWorkloadBatchDuplicateNamesRejected(t *testing.T) {
	_, err := ParseBatchSpec([]byte(`{
		"workloads": [
			{"family": "chain", "nodes": 6},
			{"family": "chain", "nodes": 6}
		]
	}`))
	if err == nil || !strings.Contains(err.Error(), "duplicate name") {
		t.Fatalf("duplicate workload names: err = %v", err)
	}
}

// TestBatchRepeatedAxisValueRejected: a value repeated on an axis would
// run two cells under one key. Values that render to the same label
// repeat too (1 and 1.0 are both "1").
func TestBatchRepeatedAxisValueRejected(t *testing.T) {
	for _, c := range []struct{ axis, values, label string }{
		{"protocols", `["jtp", "tcp", "jtp"]`, `"jtp"`},
		{"nodes", `[3, 3]`, `"3"`},
		{"mobilitySpeeds", `[0, 1, 1.0]`, `"1"`},
		{"lossTolerances", `[0.1, 0.10]`, `"0.1"`},
		{"cachePolicies", `["lru", "off", "off"]`, `"off"`},
		{"channels", `["clean", "clean"]`, `"clean"`},
	} {
		_, err := ParseBatchSpec([]byte(`{"` + c.axis + `": ` + c.values + `, "runs": 2, "seconds": 150}`))
		if err == nil || !strings.Contains(err.Error(), c.axis) || !strings.Contains(err.Error(), c.label) {
			t.Errorf("%s %s: err = %v, want one naming the axis and %s", c.axis, c.values, err, c.label)
		}
	}
	if _, err := ParseBatchSpec([]byte(`{"protocols": ["jtp", "jnc"], "nodes": [3, 4], "mobilitySpeeds": [0, 1]}`)); err != nil {
		t.Errorf("distinct axis values rejected: %v", err)
	}
}
