// Package jtp is an implementation and faithful reproduction of JTP, the
// energy-conscious transport protocol for multi-hop wireless networks of
// Riga, Matta, Medina, Partridge and Redi (CoNEXT 2007 / BUCS-2007-014),
// together with the JAVeLEN-style substrate it runs on: a TDMA MAC with
// transport-controlled link-layer retransmissions, link-state routing,
// a Gilbert-Elliott wireless channel, in-network packet caches, and the
// TCP-SACK and ATP baselines the paper compares against.
//
// The top-level package is the public API: build a simulated network,
// open transport connections with per-flow reliability (loss
// tolerance), run virtual time forward, and read energy/goodput
// metrics. Flows run JTP by default; any of the transport drivers
// (see Protocols: "atp", "jnc", "jtp", "tcp") can be selected per
// network or per flow, so baselines run on the same substrate.
//
//	sim, err := jtp.NewSim(jtp.SimConfig{Nodes: 5, Topology: jtp.LinearTopology})
//	if err != nil { ... }
//	flow, err := sim.OpenFlow(jtp.FlowConfig{Src: 0, Dst: 4, TotalPackets: 200})
//	if err != nil { ... }
//	base, err := sim.OpenFlow(jtp.FlowConfig{Src: 4, Dst: 0, TotalPackets: 200,
//		Protocol: "tcp"}) // the paper's TCP-SACK baseline, same network
//	if err != nil { ... }
//	sim.Run(600) // virtual seconds
//	fmt.Println(flow.Delivered(), base.Delivered(), sim.EnergyPerBit())
//
// The paper's full evaluation (every table and figure) lives in
// internal/experiments and is runnable through cmd/jtpsim and the
// repository benchmarks. NewSim builds its network with the same code
// the evaluation runs on (experiments.Assemble), so a Sim and a figure
// scenario with equal settings are the same network. Multi-run sweeps
// (every multi-run figure and arbitrary `jtpsim batch` scenario
// matrices) execute on the internal/campaign engine: a declarative
// axis cross product run on a parallel,
// deterministic worker pool whose aggregates are byte-identical for
// every worker count. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results and batch CLI usage.
package jtp
