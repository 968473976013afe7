package experiments

import "github.com/javelen/jtp/internal/workload"

// FromWorkload converts a generated workload scenario into a runnable
// Scenario for the given protocol. The generated value is fully
// concrete — positions, flows, budgets, churn — so the conversion is
// mechanical and the run is reproducible from the dump alone: the
// generation seed doubles as the run seed.
func FromWorkload(g *workload.Generated, proto Protocol) Scenario {
	flows := make([]FlowSpec, len(g.Flows))
	for i, f := range g.Flows {
		flows[i] = FlowSpec{
			Src:           f.Src,
			Dst:           f.Dst,
			StartAt:       f.StartAt,
			TotalPackets:  f.TotalPackets,
			LossTolerance: f.LossTolerance,
		}
	}
	events := make([]NodeEvent, len(g.Events))
	for i, e := range g.Events {
		events[i] = NodeEvent{At: e.At, Node: e.Node, Down: e.Down}
	}
	return Scenario{
		Name:          g.Name,
		Proto:         proto,
		Explicit:      g.Topology(),
		Nodes:         len(g.Positions),
		Seconds:       g.Seconds,
		Seed:          g.Seed,
		Flows:         flows,
		EnergyBudgets: g.Budgets,
		Events:        events,
	}
}
