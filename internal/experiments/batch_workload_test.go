package experiments

import (
	"context"
	"strings"
	"testing"

	"github.com/javelen/jtp/internal/workload"
)

// workloadBatchSpec returns a small driver × family matrix (every
// registered protocol over all four generated topology families).
func workloadBatchSpec() *BatchSpec {
	return &BatchSpec{
		Name:      "wl-test",
		Protocols: RegisteredProtocols(),
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
// workload axis and crosses it with every registered protocol.
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
	wantCells := len(RegisteredProtocols()) * 4
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
