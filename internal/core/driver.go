package core

import (
	"github.com/javelen/jtp/internal/ijtp"
	"github.com/javelen/jtp/internal/node"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/transport"
)

// Driver is the factory of JTP's driver under name: "jtp" with the full
// mechanism set, "jnc" (caching false) with in-network caching disabled
// (§4.1 ablation). It installs one iJTP plugin per node, configured from
// the scenario-level knobs; plugin installation order is node-id order,
// so runs stay deterministic.
func Driver(name string, caching bool) transport.Factory {
	return func(nw *node.Network, nc transport.NetConfig) transport.Driver {
		d := &driver{name: name, nw: nw}
		iCfg := ijtp.Defaults()
		if nc.MaxAttempts > 0 {
			iCfg.MaxAttempts = nc.MaxAttempts
		}
		switch {
		case !caching || nc.CacheCapacity < 0:
			iCfg.CacheCapacity = 0
		case nc.CacheCapacity > 0:
			iCfg.CacheCapacity = nc.CacheCapacity
		}
		iCfg.CachePolicy = nc.CachePolicy
		eng := nw.Engine()
		for _, nd := range nw.Nodes() {
			id := nd.ID
			pl := ijtp.New(id, iCfg, nd.Router, func(p *packet.Packet) bool {
				return nw.SendFromFront(id, p)
			})
			pl.Clock = func() float64 { return eng.Now().Seconds() }
			pl.Cache().SetPool(nw.PacketPool())
			nd.MAC.AddPlugin(pl)
			d.plugins = append(d.plugins, pl)
		}
		return d
	}
}

// driver adapts JTP (and its JNC ablation) to the transport layer: it
// holds the per-node iJTP plugins and dials core connections for flows.
type driver struct {
	name    string
	nw      *node.Network
	plugins []*ijtp.Plugin
}

// Plugins exposes the installed iJTP plugins, in node id order, for the
// harness's end-of-run collection.
func (d *driver) Plugins() []*ijtp.Plugin { return d.plugins }

// NetStats aggregates the plugins' in-network counters.
func (d *driver) NetStats() transport.NetStats {
	var ns transport.NetStats
	for _, pl := range d.plugins {
		c := pl.Counters()
		ns.EnergyBudgetDrops += c.EnergyDrops
		ns.CacheHits += c.CacheServed
		ns.CacheInserts += pl.Cache().Stats().Inserts
	}
	return ns
}

func (d *driver) OpenFlow(spec transport.FlowSpec) transport.Flow {
	cfg := Defaults(spec.Flow, spec.Src, spec.Dst)
	cfg.TotalPackets = spec.TotalPackets
	cfg.LossTolerance = spec.LossTolerance
	cfg.DisableBackoff = spec.DisableBackoff
	cfg.DisableRetransmissions = spec.DisableRetransmissions
	cfg.ConstantFeedbackRate = spec.ConstantFeedbackRate
	cfg.DeadlineAfter = spec.DeadlineAfter
	if spec.InitialRate > 0 {
		cfg.InitialRate = spec.InitialRate
	}
	if spec.MaxRate > 0 {
		cfg.MaxRate = spec.MaxRate
	}
	return transport.NewFlow(d.name, spec, Dial(d.nw, cfg))
}
