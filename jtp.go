package jtp

import (
	"errors"
	"fmt"
	"io"

	"github.com/javelen/jtp/internal/cache"
	"github.com/javelen/jtp/internal/channel"
	"github.com/javelen/jtp/internal/core"
	"github.com/javelen/jtp/internal/experiments"
	"github.com/javelen/jtp/internal/geom"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/topology"
	"github.com/javelen/jtp/internal/trace"
	"github.com/javelen/jtp/internal/transport"
)

// TopologyKind selects how nodes are laid out.
type TopologyKind int

const (
	// LinearTopology places nodes on a chain; node 0 and node N-1 are the
	// ends.
	LinearTopology TopologyKind = iota
	// RandomTopology places nodes uniformly in a square field sized so
	// the network is connected with high probability.
	RandomTopology
)

// ChannelProfile selects the wireless link behaviour.
type ChannelProfile int

const (
	// LossyChannel is the paper's evaluation channel: every link
	// alternates between a good state (5% loss) and a bad state (75%
	// loss), spending about 10% of the time bad with 3 s mean bad
	// periods.
	LossyChannel ChannelProfile = iota
	// StableChannel is the testbed-like profile: static links with 2%
	// loss.
	StableChannel
)

// CachePolicy selects the in-network cache replacement strategy.
type CachePolicy int

// Cache replacement policies (paper default LRU; the rest are the §4/§8
// future-work strategies).
const (
	// CacheLRU evicts the least recently manipulated packet.
	CacheLRU CachePolicy = iota
	// CacheFIFO evicts the oldest inserted packet.
	CacheFIFO
	// CacheRandom evicts a uniformly random packet.
	CacheRandom
	// CacheEnergyAware keeps the packets the network has invested the
	// most transmission energy in.
	CacheEnergyAware
)

// Position is one node's coordinates in meters, for explicitly placed
// (e.g. generated) topologies.
type Position struct {
	X, Y float64
}

// SimConfig assembles a simulated JAVeLEN network.
type SimConfig struct {
	// Nodes is the network size (required unless Positions is set,
	// 2 to 65536, the 16-bit node id space).
	Nodes int
	// Topology selects the layout (default LinearTopology).
	Topology TopologyKind
	// Positions, when non-empty, places nodes explicitly and overrides
	// Nodes/Topology/Spacing — the replay path for layouts produced by
	// the workload generator (`jtpsim gen`) or by the caller. The
	// layout must be connected at the radio range (100 m).
	Positions []Position
	// Spacing is the chain spacing in meters for LinearTopology
	// (default 80; radio range is 100).
	Spacing float64
	// MobilitySpeed, when positive, moves nodes under random waypoint
	// motion at this many m/s (47 m mean legs, 100 s mean pauses);
	// negative is ErrBadConfig.
	MobilitySpeed float64
	// Channel selects the link model (default LossyChannel).
	Channel ChannelProfile
	// Seed makes runs reproducible; same seed, same run (default 1).
	Seed int64
	// CacheCapacity overrides the 1000-packet per-node caches; negative
	// disables in-network caching entirely (the paper's JNC ablation).
	CacheCapacity int
	// MaxAttempts overrides MAX_ATTEMPTS, the per-link transmission
	// ceiling (default 5).
	MaxAttempts int
	// CachePolicy selects the cache replacement strategy (default LRU).
	CachePolicy CachePolicy
	// Protocol selects the default transport driver for flows opened on
	// this network (default "jtp"). Any registered driver name works:
	// "jtp", "jnc", "tcp", "atp", or protocols added by future driver
	// packages; see Protocols for the full set. Per-flow overrides go
	// through FlowConfig.Protocol.
	Protocol string
}

// Protocols returns the registered transport driver names, sorted.
func Protocols() []string { return transport.Names() }

// FlowConfig opens one JTP connection.
type FlowConfig struct {
	// Src and Dst are node indices in [0, Nodes).
	Src, Dst int
	// TotalPackets is the transfer size in 800-byte packets; 0 means an
	// unbounded stream.
	TotalPackets int
	// LossTolerance is the application's end-to-end loss tolerance in
	// [0,1): 0 is fully reliable; 0.10 tolerates 10% loss and spends
	// correspondingly less energy (paper §3).
	LossTolerance float64
	// StartAt delays the flow start (virtual seconds from now).
	StartAt float64
	// DisableBackoff turns off the §4.2 fairness back-off (ablation).
	DisableBackoff bool
	// DisableRetransmissions makes the receiver never request
	// retransmission (a UDP-like flow).
	DisableRetransmissions bool
	// ConstantFeedbackRate forces fixed-rate feedback in packets/s;
	// 0 keeps the paper's variable-rate feedback.
	ConstantFeedbackRate float64
	// DeadlineSeconds, when positive, marks every packet worthless this
	// many seconds after first transmission (real-time traffic); expired
	// packets are dropped inside the network instead of consuming
	// further energy. Combine with LossTolerance and
	// DisableRetransmissions for streaming.
	DeadlineSeconds float64
	// Protocol overrides the Sim's default transport driver for this
	// flow (default: SimConfig.Protocol). Running a baseline flow (e.g.
	// "tcp") next to JTP flows on the same network reproduces the
	// paper's comparative setup in two OpenFlow calls. Reliability
	// knobs a protocol does not support are ignored — the baselines
	// are always fully reliable. Protocols sharing exclusive in-network
	// machinery cannot mix on one Sim: "jtp" and "jnc" each install the
	// full iJTP plugin set, so opening one after the other returns
	// ErrBadConfig.
	Protocol string
}

// Sim is a simulated JAVeLEN network; flows of any registered transport
// protocol run on it (JTP by default).
type Sim struct {
	sub      *experiments.Substrate
	proto    string                      // default flow protocol
	drivers  map[string]transport.Driver // attached drivers by name
	flows    []*Flow
	nextFlow packet.FlowID
	started  bool
}

// Flow is one transport connection opened on a Sim.
type Flow struct {
	tf    transport.Flow
	proto string
	cfg   FlowConfig
	sim   *Sim
}

// Errors returned by the facade.
var (
	ErrBadConfig   = errors.New("jtp: invalid configuration")
	ErrUnreachable = errors.New("jtp: destination unreachable")
)

// NewSim builds a network per the configuration. The returned Sim is
// idle; open flows and call Run.
func NewSim(cfg SimConfig) (*Sim, error) {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	proto := cfg.Protocol
	if proto == "" {
		proto = "jtp"
	}
	chCfg := channel.Defaults()
	if cfg.Channel == StableChannel {
		chCfg = channel.Testbed()
	}
	policy := cache.LRU
	switch cfg.CachePolicy {
	case CacheFIFO:
		policy = cache.FIFO
	case CacheRandom:
		policy = cache.Random
	case CacheEnergyAware:
		policy = cache.EnergyAware
	}
	// TopologyKind numbers its layouts exactly as experiments.TopoKind.
	sc := experiments.Scenario{
		Name:          "NewSim",
		Proto:         experiments.Protocol(proto),
		Topo:          experiments.TopoKind(cfg.Topology),
		Nodes:         cfg.Nodes,
		LinearSpacing: cfg.Spacing,
		MobilitySpeed: cfg.MobilitySpeed,
		Seed:          seed,
		Channel:       &chCfg,
		CacheCapacity: cfg.CacheCapacity,
		CachePolicy:   policy,
		MaxAttempts:   cfg.MaxAttempts,
	}
	if len(cfg.Positions) > 0 {
		pts := make([]geom.Point, len(cfg.Positions))
		for i, p := range cfg.Positions {
			pts[i] = geom.Point{X: p.X, Y: p.Y}
		}
		sc.Explicit = topology.FromPositions(pts, chCfg.Range/2)
		if !topology.Connected(sc.Explicit, chCfg.Range) {
			return nil, fmt.Errorf("%w: explicit positions are not connected at radio range %g m", ErrBadConfig, chCfg.Range)
		}
	}
	sub, err := experiments.Assemble(sc)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return &Sim{
		sub:      sub,
		proto:    proto,
		drivers:  map[string]transport.Driver{proto: sub.Driver},
		nextFlow: 1,
	}, nil
}

// driver returns the attached driver for a protocol, instantiating and
// attaching it from the registry on first use. Every attached driver
// shares the Sim's network and scenario-level knobs. Drivers whose
// in-network machinery is exclusive (jtp vs jnc: both would install a
// full iJTP plugin set that double-processes every JTP packet) are
// refused when a conflicting driver is already attached.
func (s *Sim) driver(name string) (transport.Driver, error) {
	if d, ok := s.drivers[name]; ok {
		return d, nil
	}
	d, err := transport.New(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if ex, ok := d.(transport.Exclusive); ok {
		for prev, pd := range s.drivers {
			if pex, ok := pd.(transport.Exclusive); ok && pex.ExclusiveKey() == ex.ExclusiveKey() {
				return nil, fmt.Errorf("%w: protocol %q conflicts with already-attached %q (both install %s in-network machinery)",
					ErrBadConfig, name, prev, ex.ExclusiveKey())
			}
		}
	}
	if err := d.Attach(s.sub.Network, s.sub.NetConfig); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	s.drivers[name] = d
	return d, nil
}

// start launches the substrate lazily on first Run or OpenFlow.
func (s *Sim) start() {
	if s.started {
		return
	}
	s.started = true
	s.sub.Start()
}

// OpenFlow opens a transport connection — the Sim's default protocol,
// or cfg.Protocol's — and schedules its start. A protocol used for the
// first time has its driver attached on demand, so a JTP network and a
// TCP-SACK baseline flow coexist on one substrate.
func (s *Sim) OpenFlow(cfg FlowConfig) (*Flow, error) {
	n := s.sub.Network.N()
	if cfg.Src < 0 || cfg.Src >= n || cfg.Dst < 0 || cfg.Dst >= n || cfg.Src == cfg.Dst {
		return nil, fmt.Errorf("%w: endpoints %d->%d of %d nodes", ErrBadConfig, cfg.Src, cfg.Dst, n)
	}
	if cfg.LossTolerance < 0 || cfg.LossTolerance >= 1 {
		return nil, fmt.Errorf("%w: loss tolerance %.2f outside [0,1)", ErrBadConfig, cfg.LossTolerance)
	}
	proto := cfg.Protocol
	if proto == "" {
		proto = s.proto
	}
	drv, err := s.driver(proto)
	if err != nil {
		return nil, err
	}
	s.start()
	if _, ok := s.sub.Network.Node(packet.NodeID(cfg.Src)).Router.NextHop(packet.NodeID(cfg.Dst)); !ok {
		return nil, fmt.Errorf("%w: no route %d->%d", ErrUnreachable, cfg.Src, cfg.Dst)
	}

	spec := transport.FlowSpec{
		Flow:                   s.nextFlow,
		Src:                    packet.NodeID(cfg.Src),
		Dst:                    packet.NodeID(cfg.Dst),
		StartAt:                s.sub.Engine.Now().Seconds() + cfg.StartAt,
		TotalPackets:           cfg.TotalPackets,
		LossTolerance:          cfg.LossTolerance,
		DisableBackoff:         cfg.DisableBackoff,
		DisableRetransmissions: cfg.DisableRetransmissions,
		ConstantFeedbackRate:   cfg.ConstantFeedbackRate,
		DeadlineAfter:          cfg.DeadlineSeconds,
	}
	s.nextFlow++
	tf, err := drv.OpenFlow(spec)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}

	f := &Flow{tf: tf, proto: proto, cfg: cfg, sim: s}
	s.flows = append(s.flows, f)
	if cfg.StartAt > 0 {
		s.sub.Engine.Schedule(sim.DurationOf(cfg.StartAt), tf.Start)
	} else {
		tf.Start()
	}
	return f, nil
}

// Run advances virtual time by the given number of seconds, processing
// all events. It may be called repeatedly.
func (s *Sim) Run(seconds float64) {
	s.start()
	s.sub.Engine.RunFor(sim.DurationOf(seconds))
}

// RunUntilDone advances time until every fixed-size flow completes or
// maxSeconds elapse; it reports whether all completed.
func (s *Sim) RunUntilDone(maxSeconds float64) bool {
	s.start()
	const step = 50.0
	deadline := s.sub.Engine.Now().Add(sim.DurationOf(maxSeconds))
	for s.sub.Engine.Now() < deadline {
		if s.allDone() {
			return true
		}
		s.sub.Engine.RunFor(sim.DurationOf(step))
	}
	return s.allDone()
}

func (s *Sim) allDone() bool {
	for _, f := range s.flows {
		if f.cfg.TotalPackets > 0 && !f.tf.Done() {
			return false
		}
	}
	return true
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.sub.Engine.Now().Seconds() }

// FailNode takes a node's radio down: it stops transmitting, receiving
// and routing, and its queued packets are lost. Routes re-form at the
// next link-state refresh; in-flight transfers recover through caches
// and end-to-end retransmission (§2's "intermediate node failure").
func (s *Sim) FailNode(id int) error {
	if id < 0 || id >= s.sub.Network.N() {
		return fmt.Errorf("%w: node %d of %d", ErrBadConfig, id, s.sub.Network.N())
	}
	s.sub.Network.SetDown(packet.NodeID(id), true)
	return nil
}

// ReviveNode brings a failed node back.
func (s *Sim) ReviveNode(id int) error {
	if id < 0 || id >= s.sub.Network.N() {
		return fmt.Errorf("%w: node %d of %d", ErrBadConfig, id, s.sub.Network.N())
	}
	s.sub.Network.SetDown(packet.NodeID(id), false)
	return nil
}

// At schedules fn to run at the given virtual time in seconds (for
// scripting failures and load changes in examples and tests).
func (s *Sim) At(seconds float64, fn func()) {
	s.sub.Engine.ScheduleAt(sim.Time(sim.DurationOf(seconds)), fn)
}

// EnableTrace starts recording the last n packet-lifecycle events
// (origination, forwarding, delivery, drops with reasons).
func (s *Sim) EnableTrace(n int) {
	s.sub.Network.Tracer = trace.New(n)
}

// DumpTrace writes the recorded events to w, one per line, and returns
// the number of events written. EnableTrace must have been called.
func (s *Sim) DumpTrace(w io.Writer) (int, error) {
	if s.sub.Network.Tracer == nil {
		return 0, fmt.Errorf("%w: tracing not enabled", ErrBadConfig)
	}
	if err := s.sub.Network.Tracer.Dump(w); err != nil {
		return 0, err
	}
	return s.sub.Network.Tracer.Len(), nil
}

// TraceSummary returns per-event-kind counts of the recorded trace, or
// an empty string when tracing is disabled.
func (s *Sim) TraceSummary() string {
	if s.sub.Network.Tracer == nil {
		return ""
	}
	return s.sub.Network.Tracer.Summary()
}

// TotalEnergy returns system-wide joules spent on transport packets.
func (s *Sim) TotalEnergy() float64 { return s.sub.Network.TotalEnergy() }

// PerNodeEnergy returns joules by node index.
func (s *Sim) PerNodeEnergy() []float64 { return s.sub.Network.PerNodeEnergy() }

// EnergyPerBit returns system joules per delivered application bit
// across all flows — the paper's headline metric.
func (s *Sim) EnergyPerBit() float64 {
	var bytes uint64
	for _, f := range s.flows {
		bytes += f.DeliveredBytes()
	}
	if bytes == 0 {
		return 0
	}
	return s.TotalEnergy() / float64(bytes*8)
}

// Protocol returns the Sim's default transport protocol.
func (s *Sim) Protocol() string { return s.proto }

// QueueDrops returns MAC queue overflow drops across the network.
func (s *Sim) QueueDrops() uint64 { return s.sub.Network.QueueDrops() }

// CacheHits returns in-network cache recoveries across the network.
func (s *Sim) CacheHits() uint64 {
	var sum uint64
	for _, d := range s.drivers {
		if nr, ok := d.(transport.NetReporter); ok {
			sum += nr.NetStats().CacheHits
		}
	}
	return sum
}

// Flows returns the opened flows in creation order.
func (s *Sim) Flows() []*Flow { return s.flows }

// Protocol returns the transport protocol this flow runs.
func (f *Flow) Protocol() string { return f.proto }

// Stats snapshots the flow as a protocol-independent record.
func (f *Flow) Stats() *metrics.FlowRecord { return f.tf.Stats() }

// Delivered returns the number of unique packets delivered to the
// application.
func (f *Flow) Delivered() uint64 { return f.Stats().UniqueDelivered }

// DeliveredBytes returns unique application payload bytes delivered.
func (f *Flow) DeliveredBytes() uint64 { return f.Stats().DeliveredBytes }

// Completed reports whether a fixed-size transfer finished.
func (f *Flow) Completed() bool { return f.tf.Done() }

// CompletedAt returns the completion time in virtual seconds (0 if not
// completed).
func (f *Flow) CompletedAt() float64 { return f.Stats().CompletedAt }

// GoodputBps returns delivered bits per second of active time.
func (f *Flow) GoodputBps() float64 {
	return transport.GoodputNow(f.Stats(), f.sim.sub.Engine.Now().Seconds())
}

// SourceRetransmissions returns end-to-end retransmissions performed by
// the source.
func (f *Flow) SourceRetransmissions() uint64 { return f.Stats().SourceRetransmissions }

// CacheRecovered returns packets recovered by in-network caches on this
// flow's behalf, as observed at the receiver. Zero for protocols
// without in-network recovery.
func (f *Flow) CacheRecovered() uint64 { return f.Stats().CacheRecovered }

// AcksSent returns feedback packets the receiver transmitted.
func (f *Flow) AcksSent() uint64 { return f.Stats().AcksSent }

// Rate returns the receiver-mandated sending rate in packets/s. It is
// JTP-specific and returns 0 for baseline protocols.
func (f *Flow) Rate() float64 {
	if cc, ok := f.tf.(interface{ Conn() *core.Connection }); ok {
		return cc.Conn().Receiver.Rate()
	}
	return 0
}
