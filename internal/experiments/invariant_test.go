package experiments

import (
	"fmt"
	"math"
	"testing"

	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/node"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/transport/drivers"
	"github.com/javelen/jtp/internal/workload"
)

// invariantWorkloads are the four generated topology families the
// invariant suite sweeps, with heterogeneous budgets and churn on the
// star so the battery-death and failure paths are exercised too.
func invariantWorkloads() []*workload.Spec {
	specs := []*workload.Spec{
		{Family: workload.Chain, Nodes: 6, Traffic: workload.Single, TotalPackets: 40, Seconds: 250},
		{Family: workload.Grid, Nodes: 9, Traffic: workload.Sink, Flows: 3, TotalPackets: 30, Seconds: 250},
		{Family: workload.RGG, Nodes: 12, Traffic: workload.Pairs, Flows: 3, TotalPackets: 30, LossTolerance: 0.1, Seconds: 250},
		{Family: workload.Star, Nodes: 8, Traffic: workload.Staggered, Flows: 3, TotalPackets: 30, Seconds: 250,
			EnergyClasses: []workload.EnergyClass{{Weight: 2, BudgetJ: 0}, {Weight: 1, BudgetJ: 0.8}},
			Churn:         &workload.ChurnSpec{Failures: 1, MeanDowntime: 40}},
	}
	for _, s := range specs {
		s.ApplyDefaults()
	}
	return specs
}

// TestInvariant runs every transport driver over every
// generated topology family at several seeds (the driver × workload
// matrix, ~50 runs) and checks the conservation laws no protocol may
// break, whatever its mechanisms:
//
//   - unique packets delivered ≤ packets first-sent at the source
//     (nothing is delivered that was never sent);
//   - per-node energy spent ≤ the node's initial budget, and spent
//     energy is monotone non-decreasing over the whole run (remaining
//     battery strictly monotone non-increasing);
//   - goodput ≥ 0;
//   - a flow reporting completion actually delivered its transfer, up
//     to its declared loss tolerance (no completion with missing
//     bytes).
func TestInvariant(t *testing.T) {
	for _, proto := range drivers.Names() {
		for _, wl := range invariantWorkloads() {
			for seed := int64(1); seed <= 3; seed++ {
				proto, wl, seed := proto, wl, seed
				t.Run(fmt.Sprintf("%s/%s/s%d", proto, wl.Name, seed), func(t *testing.T) {
					t.Parallel()
					g, err := workload.Generate(wl, seed)
					if err != nil {
						t.Fatalf("generate: %v", err)
					}
					sc := FromWorkload(g, Protocol(proto))

					// Sample per-node cumulative spend during the run:
					// meters may only ever grow.
					var prev []float64
					hooks := Hooks{Network: func(nw *node.Network) {
						nw.Engine().NewTicker(5*sim.Second, func() {
							cur := nw.PerNodeEnergy()
							for i := range cur {
								if prev != nil && cur[i] < prev[i]-1e-12 {
									t.Errorf("node %d energy spend decreased: %g -> %g", i, prev[i], cur[i])
								}
							}
							prev = cur
						})
					}}
					rec, err := RunWithHooks(sc, hooks)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					checkRunInvariants(t, g, rec)
				})
			}
		}
	}
}

// checkRunInvariants asserts the cross-protocol conservation laws on
// one finished run.
func checkRunInvariants(t *testing.T, g *workload.Generated, rec *metrics.RunRecord) {
	t.Helper()
	if rec.TotalEnergy < 0 {
		t.Errorf("negative total energy %g", rec.TotalEnergy)
	}
	sum := 0.0
	for _, e := range rec.PerNodeEnergy {
		if e < 0 {
			t.Errorf("negative per-node energy %g", e)
		}
		sum += e
	}
	if math.Abs(sum-rec.TotalEnergy) > 1e-9*(1+rec.TotalEnergy) {
		t.Errorf("per-node energy sums to %g, total reports %g", sum, rec.TotalEnergy)
	}
	for i, b := range rec.EnergyBudgets {
		if b > 0 && rec.PerNodeEnergy[i] > b+1e-12 {
			t.Errorf("node %d spent %g J over its %g J budget", i, rec.PerNodeEnergy[i], b)
		}
	}
	if len(rec.Flows) != len(g.Flows) {
		t.Fatalf("%d flow records for %d generated flows", len(rec.Flows), len(g.Flows))
	}
	for i, f := range rec.Flows {
		spec := g.Flows[i]
		if f.UniqueDelivered > f.DataSent {
			t.Errorf("flow %d: delivered %d unique packets but only %d were ever sent",
				i, f.UniqueDelivered, f.DataSent)
		}
		if gp := f.GoodputBps(rec.Seconds); gp < 0 || math.IsNaN(gp) || math.IsInf(gp, 0) {
			t.Errorf("flow %d: bad goodput %g", i, gp)
		}
		if f.Completed && spec.TotalPackets > 0 {
			required := uint64(math.Ceil(float64(spec.TotalPackets) * (1 - spec.LossTolerance)))
			if f.UniqueDelivered < required {
				t.Errorf("flow %d (%s): reports completion with %d/%d packets (tolerance %g requires >= %d)",
					i, f.Proto, f.UniqueDelivered, spec.TotalPackets, spec.LossTolerance, required)
			}
		}
	}
}
