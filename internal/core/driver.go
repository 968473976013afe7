package core

import (
	"fmt"

	"github.com/javelen/jtp/internal/ijtp"
	"github.com/javelen/jtp/internal/node"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/transport"
)

// The paper's protocol registers twice: "jtp" with the full mechanism
// set, "jnc" with in-network caching disabled (§4.1 ablation). Both are
// the same driver differing by one option.
func init() {
	transport.MustRegister("jtp", func() transport.Driver { return &driver{name: "jtp", caching: true} })
	transport.MustRegister("jnc", func() transport.Driver { return &driver{name: "jnc", caching: false} })
}

// driver adapts JTP (and its JNC ablation) to the transport layer: it
// installs the per-node iJTP plugins at attach time and dials core
// connections for flows.
type driver struct {
	name    string
	caching bool
	nw      *node.Network
	net     transport.NetConfig
	plugins []*ijtp.Plugin
}

// Attach installs one iJTP plugin per node, configured from the
// scenario-level knobs; plugin installation order is node-id order, so
// runs stay deterministic.
func (d *driver) Attach(nw *node.Network, nc transport.NetConfig) error {
	if d.nw != nil {
		return fmt.Errorf("core: driver %q already attached", d.name)
	}
	d.nw, d.net = nw, nc
	iCfg := ijtp.Defaults()
	if nc.MaxAttempts > 0 {
		iCfg.MaxAttempts = nc.MaxAttempts
	}
	if !d.caching {
		iCfg.CacheEnabled = false
	}
	if nc.CacheCapacity > 0 {
		iCfg.CacheCapacity = nc.CacheCapacity
	} else if nc.CacheCapacity < 0 {
		iCfg.CacheEnabled = false
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
	return nil
}

// Plugins exposes the installed iJTP plugins, in node id order, for the
// harness's end-of-run collection.
func (d *driver) Plugins() []*ijtp.Plugin { return d.plugins }

// ExclusiveKey marks the iJTP plugin set: "jtp" and "jnc" both install
// it, and it acts on every JTP packet, so only one of them may attach
// to a network (transport.Exclusive).
func (d *driver) ExclusiveKey() string { return "ijtp" }

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

func (d *driver) OpenFlow(spec transport.FlowSpec) (transport.Flow, error) {
	if d.nw == nil {
		return nil, fmt.Errorf("core: driver %q not attached", d.name)
	}
	cfg := Defaults(spec.Flow, spec.Src, spec.Dst)
	cfg.TotalPackets = spec.TotalPackets
	cfg.LossTolerance = spec.LossTolerance
	cfg.DisableBackoff = spec.DisableBackoff
	cfg.DisableRetransmissions = spec.DisableRetransmissions
	cfg.ConstantFeedbackRate = spec.ConstantFeedbackRate
	cfg.DeadlineAfter = spec.DeadlineAfter
	if d.net.TLowerBound > 0 {
		cfg.TLowerBound = d.net.TLowerBound
	}
	if spec.InitialRate > 0 {
		cfg.InitialRate = spec.InitialRate
	}
	if spec.MaxRate > 0 {
		cfg.MaxRate = spec.MaxRate
	}
	return transport.NewFlow(d.name, spec, Dial(d.nw, cfg)), nil
}
