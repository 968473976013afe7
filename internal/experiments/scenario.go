// Package experiments reproduces every table and figure of the paper's
// evaluation (§3–§6). Each FigN/TableN function declares a Figure: the
// campaign of scenarios the paper describes, run on the simulated
// JAVeLEN substrate, and its projection onto paper-style tables. The
// cmd/jtpsim CLI and the repository benchmarks are thin wrappers over
// this package.
//
// Transports are never named in the assembly code: every protocol under
// test reaches the harness through internal/transport/drivers, so a
// protocol added there is available to every figure campaign and batch
// matrix here.
package experiments

import (
	"fmt"
	"sync"

	"github.com/javelen/jtp/internal/cache"
	"github.com/javelen/jtp/internal/channel"
	"github.com/javelen/jtp/internal/energy"
	"github.com/javelen/jtp/internal/ijtp"
	"github.com/javelen/jtp/internal/mac"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/mobility"
	"github.com/javelen/jtp/internal/node"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/routing"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/topology"
	"github.com/javelen/jtp/internal/transport"
	"github.com/javelen/jtp/internal/transport/drivers"
)

// Protocol selects the transport under test by its driver name. Any
// name in drivers.Names() is valid.
type Protocol string

// Protocols compared in §6 (the built-in drivers).
const (
	// JTP is the paper's protocol with all mechanisms on.
	JTP Protocol = "jtp"
	// JNC is JTP with in-network caching disabled (§4.1 ablation).
	JNC Protocol = "jnc"
	// TCP is the rate-paced TCP-SACK baseline.
	TCP Protocol = "tcp"
	// ATP is the explicit-rate, constant-feedback baseline.
	ATP Protocol = "atp"
)

// TopoKind selects the layout.
type TopoKind int

// Topology kinds of §6.1.
const (
	// Linear chains with endpoints at the two ends (§6.1.1).
	Linear TopoKind = iota
	// Random 2-D fields sized for connectivity (§6.1.2).
	Random
)

// FlowSpec describes one flow of a scenario.
type FlowSpec struct {
	// Src and Dst are node indices; -1 picks random distinct nodes.
	Src, Dst int
	// StartAt is the flow start in virtual seconds.
	StartAt float64
	// StopAt, when positive, hard-stops the flow (short-lived flows).
	StopAt float64
	// TotalPackets is the transfer size; 0 = unbounded stream.
	TotalPackets int
	// LossTolerance is the JTP application tolerance (ignored by
	// baselines, which are always fully reliable).
	LossTolerance float64
	// DisableBackoff turns §4.2 source back-off off (Fig 5 ablation).
	DisableBackoff bool
	// DisableRetransmissions makes the JTP receiver never SNACK (the
	// UDP-like flow 1 of Fig 5).
	DisableRetransmissions bool
	// ConstantFeedbackRate forces fixed-rate feedback in packets/s
	// (Fig 7); zero keeps the paper's variable feedback.
	ConstantFeedbackRate float64
	// InitialRate overrides the flow's starting rate in packets/s.
	InitialRate float64
	// MaxRate overrides the flow's rate ceiling in packets/s.
	MaxRate float64
}

// Scenario is one simulation run's full specification.
type Scenario struct {
	// Name labels the run.
	Name string
	// Proto is the transport under test.
	Proto Protocol
	// Topo selects the layout for Nodes nodes.
	Topo TopoKind
	// Nodes is the network size.
	Nodes int
	// LinearSpacing is the chain spacing in meters (default 80, inside
	// the 100 m radio range).
	LinearSpacing float64
	// MobilitySpeed enables random-waypoint motion at this speed in m/s.
	MobilitySpeed float64
	// Seconds is the run duration in virtual seconds.
	Seconds float64
	// Seed drives all randomness; same seed, same run.
	Seed int64
	// Flows to create.
	Flows []FlowSpec

	// Explicit, when non-nil, overrides Topo/Nodes/LinearSpacing with a
	// pre-built layout — generated workloads (internal/workload) and
	// replayed scenario dumps use it. The topology is cloned before
	// use, so mobility never mutates the caller's copy.
	Explicit *topology.Topology
	// EnergyBudgets, when non-empty, gives each node an initial energy
	// budget in joules (0 = unlimited); a node that can no longer
	// afford a link event has a dead battery and drops out.
	EnergyBudgets []float64
	// Events schedules node failures and revivals (churn).
	Events []NodeEvent

	// Channel overrides the default Gilbert-Elliott channel when non-nil.
	Channel *channel.Config
	// MAC overrides the default MAC parameters when non-nil.
	MAC *mac.Config
	// CacheCapacity overrides Table 1's 1000-packet caches when > 0;
	// -1 means zero capacity (equivalent to JNC).
	CacheCapacity int
	// CachePolicy selects the in-network cache replacement policy
	// (default cache.LRU, the paper's policy).
	CachePolicy cache.Policy
	// MaxAttempts overrides Table 1's MAX_ATTEMPTS when > 0.
	MaxAttempts int

	// Telemetry fills RunRecord.Telemetry from the counters every layer
	// keeps anyway, read once after time stops (see telemetry). It
	// changes nothing the run does, so a telemetry run is bit-identical
	// to a bare one and shares its pooled substrates. Campaign runs set
	// it when their Options enable telemetry.
	Telemetry bool
}

// NodeEvent is one scheduled node state change (churn schedules).
type NodeEvent struct {
	// At is the event time in virtual seconds.
	At float64
	// Node is the affected node index.
	Node int
	// Down fails the node when true, revives it when false.
	Down bool
}

// Hooks lets a caller attach a probe (a packet tracer, an invariant
// checker) before the run starts.
type Hooks struct {
	// Network runs after the network is built and started.
	Network func(nw *node.Network)
}

// BuiltScenario is a fully assembled run: substrate started, driver
// attached, flows dialed and scheduled. Run advances time and collects.
type BuiltScenario struct {
	sc    Scenario
	sub   *Substrate
	flows []transport.Flow
	// pooled: Run hands the substrate back to the pool (hook-free builds).
	pooled bool
}

// Substrate is an assembled network that has not started: the engine,
// the network with the scenario's protocol driver built on it, and the
// mobility model armed but idle. Assemble builds it; Start launches it.
type Substrate struct {
	Engine  *sim.Engine
	Network *node.Network
	// Driver is the scenario protocol's driver, built on Network with
	// NetConfig; further drivers may be built with the same config.
	Driver    transport.Driver
	NetConfig transport.NetConfig

	mob        *mobility.Model
	radioRange float64 // the configured channel range, for endpoint picks
	shape      shape   // what the network was built from
}

// shape is everything Assemble builds a network's structure from. Two
// scenarios of one shape differ only in what a run installs afresh —
// seed, topology, budget values, flows, events — so a substrate built
// for one, cleared, serves the other.
type shape struct {
	proto    Protocol
	nodes    int
	channel  channel.Config
	mac      mac.Config
	routing  routing.Config
	cacheCap int
	policy   cache.Policy
	budgets  bool
}

// Start launches routing and the TDMA schedule, then mobility.
func (s *Substrate) Start() {
	s.Network.Start()
	if s.mob != nil {
		s.mob.Start()
	}
}

// substrates recycles the substrates of hook-free runs, about one per
// campaign worker (sync.Pool keeps one per P). A worker churns through
// thousands of runs, mostly of one cell and so of one shape: the next
// run of the substrate's shape clears it and installs its own topology
// instead of building a network, and a run of another shape keeps only
// its engine and drops the rest. Every layer's Clear restores what its
// constructor built and Engine.Reset reproduces NewEngine, so a cleared
// substrate runs exactly like a new one (TestPooledRunMatchesFresh).
var substrates sync.Pool

// Run executes the scenario and aggregates a RunRecord. It returns an
// error for invalid scenarios — notably an unknown protocol — instead
// of panicking.
func Run(sc Scenario) (*metrics.RunRecord, error) { return RunWithHooks(sc, Hooks{}) }

// RunWithHooks executes the scenario with probes attached. Hook-free runs
// recycle their substrate (see BuildScenario); runs with a hook — it may
// retain the network — build their own and leave it to the GC.
func RunWithHooks(sc Scenario, hooks Hooks) (*metrics.RunRecord, error) {
	b, err := BuildScenario(sc, hooks)
	if err != nil {
		return nil, err
	}
	return b.Run(), nil
}

// Assemble builds the scenario's network without starting it: it
// resolves the protocol's driver factory, validates the network fields,
// lays out the topology, builds the nodes, builds the driver on them
// and arms mobility. It is the one place a network is assembled;
// BuildScenario and the public jtp facade both call it. The run fields
// (Seconds, Flows, Events) are BuildScenario's to check.
func Assemble(sc Scenario) (*Substrate, error) { return assemble(sc, nil) }

// assemble is Assemble on a recycled substrate, old (nil for none). If
// old has the scenario's shape, its layers are cleared and take the
// scenario's topology in place of a new network; otherwise only its
// engine is kept.
func assemble(sc Scenario, old *Substrate) (*Substrate, error) {
	if sc.Explicit != nil {
		sc.Nodes = sc.Explicit.N()
	}
	chCfg, macCfg, rtCfg := sc.layerConfigs()
	key := sc.shape(chCfg, macCfg, rtCfg)
	reuse := old != nil && old.shape == key
	// The driver's factory is resolved first so an unknown protocol
	// fails before any simulation state exists. A reused substrate has
	// its driver.
	var newDriver transport.Factory
	if !reuse {
		var err error
		if newDriver, err = drivers.Lookup(string(sc.Proto)); err != nil {
			return nil, fmt.Errorf("experiments: scenario %q: %w", sc.Name, err)
		}
	}
	if err := sc.validateNetwork(); err != nil {
		return nil, err
	}

	var eng *sim.Engine
	if old != nil {
		eng = old.Engine
		eng.Reset(sc.Seed)
	} else {
		eng = sim.NewEngine(sc.Seed)
	}

	// ---- Substrate -------------------------------------------------
	spacing := sc.LinearSpacing
	if spacing <= 0 {
		spacing = 80
	}
	var topo *topology.Topology
	switch {
	case sc.Explicit != nil:
		topo = sc.Explicit.Clone()
	case sc.Topo == Linear:
		topo = topology.Linear(sc.Nodes, spacing)
	case sc.Topo == Random:
		t, ok := topology.Random(sc.Nodes, chCfg.Range, eng.Rand(), 200)
		if !ok {
			return nil, fmt.Errorf("experiments: could not build connected random topology n=%d", sc.Nodes)
		}
		topo = t
	default:
		return nil, fmt.Errorf("experiments: unknown topology kind %d", sc.Topo)
	}

	var sub *Substrate
	if reuse {
		sub = old
		sub.Network.Clear(topo, sc.EnergyBudgets)
	} else {
		nw := node.New(eng, node.Config{
			Topo:    topo,
			Channel: chCfg,
			MAC:     macCfg,
			Routing: rtCfg,
			Energy:  energy.JAVeLEN(),
			Budgets: sc.EnergyBudgets,
		})

		// ---- Protocol plumbing -------------------------------------
		netCfg := transport.NetConfig{
			MaxAttempts:   macCfg.MaxAttempts,
			CacheCapacity: sc.CacheCapacity,
			CachePolicy:   sc.CachePolicy,
		}
		sub = &Substrate{Engine: eng, Network: nw, Driver: newDriver(nw, netCfg), NetConfig: netCfg, radioRange: chCfg.Range, shape: key}
	}
	if sc.MobilitySpeed > 0 {
		sub.mob = mobility.New(eng, topo, topo.Field, mobility.Defaults(sc.MobilitySpeed))
	}
	return sub, nil
}

// layerConfigs resolves the channel, MAC and routing configurations the
// scenario's network is built with.
func (sc *Scenario) layerConfigs() (channel.Config, mac.Config, routing.Config) {
	chCfg := channel.Defaults()
	if sc.Channel != nil {
		chCfg = *sc.Channel
	}
	macCfg := mac.Defaults()
	if sc.MAC != nil {
		macCfg = *sc.MAC
	}
	if sc.MaxAttempts > 0 {
		macCfg.MaxAttempts = sc.MaxAttempts
	}
	rtCfg := routing.Config{}
	if sc.MobilitySpeed > 0 {
		rtCfg = routing.Defaults()
	}
	return chCfg, macCfg, rtCfg
}

// shape keys the network the scenario builds.
func (sc *Scenario) shape(chCfg channel.Config, macCfg mac.Config, rtCfg routing.Config) shape {
	return shape{
		proto: sc.Proto, nodes: sc.Nodes,
		channel: chCfg, mac: macCfg, routing: rtCfg,
		cacheCap: sc.CacheCapacity, policy: sc.CachePolicy,
		budgets: len(sc.EnergyBudgets) > 0,
	}
}

// BuildScenario validates the scenario, assembles and starts its
// network, schedules the node events, and dials + schedules every flow.
// The returned BuiltScenario is ready to Run. Without a hook it is
// assembled on the worker's recycled substrate, which Run hands back.
func BuildScenario(sc Scenario, hooks Hooks) (*BuiltScenario, error) {
	if sc.Explicit != nil {
		sc.Nodes = sc.Explicit.N()
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	var old *Substrate
	if hooks.Network == nil {
		old, _ = substrates.Get().(*Substrate)
	}
	return build(sc, hooks, old)
}

// build is BuildScenario on the recycled substrate old (nil for none),
// after validation.
func build(sc Scenario, hooks Hooks, old *Substrate) (*BuiltScenario, error) {
	sub, err := assemble(sc, old)
	if err != nil {
		return nil, err
	}
	eng, nw, drv := sub.Engine, sub.Network, sub.Driver
	sub.Start()
	for _, ev := range sc.Events {
		ev := ev
		eng.Schedule(sim.DurationOf(ev.At), func() {
			nw.SetDown(packet.NodeID(ev.Node), ev.Down)
		})
	}
	if hooks.Network != nil {
		hooks.Network(nw)
	}

	// ---- Flows -------------------------------------------------------
	b := &BuiltScenario{sc: sc, sub: sub, pooled: hooks.Network == nil}
	for i, spec := range sc.Flows {
		src, dst := pickEndpoints(spec, sc, eng, nw.Topology(), sub.radioRange)
		spec.Src, spec.Dst = src, dst

		tSpec := transport.FlowSpec{
			Flow:                   packet.FlowID(i + 1),
			Src:                    packet.NodeID(src),
			Dst:                    packet.NodeID(dst),
			StartAt:                spec.StartAt,
			TotalPackets:           spec.TotalPackets,
			LossTolerance:          spec.LossTolerance,
			DisableBackoff:         spec.DisableBackoff,
			DisableRetransmissions: spec.DisableRetransmissions,
			ConstantFeedbackRate:   spec.ConstantFeedbackRate,
			InitialRate:            spec.InitialRate,
			MaxRate:                spec.MaxRate,
		}

		fl := drv.OpenFlow(tSpec)
		b.flows = append(b.flows, fl)
		eng.Schedule(sim.DurationOf(spec.StartAt), fl.Start)
		if spec.StopAt > spec.StartAt && spec.StopAt > 0 {
			eng.Schedule(sim.DurationOf(spec.StopAt), fl.Stop)
		}
	}
	return b, nil
}

// validate rejects scenario values that would otherwise fail deep
// inside the substrate — as an index panic, or worse, as a silently
// empty run. Every error names the offending field. It runs after the
// Explicit-topology override, so Nodes is always the real node count.
// The network fields are checked first, by the validator Assemble uses.
func (sc *Scenario) validate() error {
	if err := sc.validateNetwork(); err != nil {
		return err
	}
	if sc.Seconds <= 0 {
		return fmt.Errorf("experiments: scenario %q: seconds: %g not positive (the run would be empty)", sc.Name, sc.Seconds)
	}
	for i, f := range sc.Flows {
		if f.Src < -1 || f.Src >= sc.Nodes || f.Dst < -1 || f.Dst >= sc.Nodes {
			return fmt.Errorf("experiments: scenario %q: flows[%d]: endpoints %d->%d outside [0,%d) (-1 = random)",
				sc.Name, i, f.Src, f.Dst, sc.Nodes)
		}
		if f.Src >= 0 && f.Src == f.Dst {
			return fmt.Errorf("experiments: scenario %q: flows[%d]: src == dst == %d", sc.Name, i, f.Src)
		}
		if f.LossTolerance < 0 || f.LossTolerance >= 1 {
			return fmt.Errorf("experiments: scenario %q: flows[%d]: lossTolerance %g outside [0,1)", sc.Name, i, f.LossTolerance)
		}
		if f.StartAt < 0 {
			return fmt.Errorf("experiments: scenario %q: flows[%d]: startAt: negative %g", sc.Name, i, f.StartAt)
		}
		if f.StartAt >= sc.Seconds {
			return fmt.Errorf("experiments: scenario %q: flows[%d]: startAt %g not before end of run %g (the flow would never run)",
				sc.Name, i, f.StartAt, sc.Seconds)
		}
		if f.TotalPackets < 0 {
			return fmt.Errorf("experiments: scenario %q: flows[%d]: totalPackets: negative %d", sc.Name, i, f.TotalPackets)
		}
	}
	for i, ev := range sc.Events {
		if ev.Node < 0 || ev.Node >= sc.Nodes {
			return fmt.Errorf("experiments: scenario %q: events[%d]: node %d outside [0,%d)", sc.Name, i, ev.Node, sc.Nodes)
		}
		if ev.At < 0 {
			return fmt.Errorf("experiments: scenario %q: events[%d]: at: negative %g", sc.Name, i, ev.At)
		}
	}
	return nil
}

// maxNodes is the size of the 16-bit node id space (packet.NodeID); a
// larger network would alias node ids.
const maxNodes = 1 << 16

// validateNetwork checks the fields Assemble builds a network from.
func (sc *Scenario) validateNetwork() error {
	if sc.Nodes < 2 {
		return fmt.Errorf("experiments: scenario %q: nodes: %d too small (min 2)", sc.Name, sc.Nodes)
	}
	if sc.Nodes > maxNodes {
		return fmt.Errorf("experiments: scenario %q: nodes: %d too large (max %d, the node id space)", sc.Name, sc.Nodes, maxNodes)
	}
	if sc.MobilitySpeed < 0 {
		return fmt.Errorf("experiments: scenario %q: mobilitySpeed: negative %g", sc.Name, sc.MobilitySpeed)
	}
	if n := len(sc.EnergyBudgets); n != 0 && n != sc.Nodes {
		return fmt.Errorf("experiments: scenario %q: energyBudgets: %d entries for %d nodes", sc.Name, n, sc.Nodes)
	}
	for i, b := range sc.EnergyBudgets {
		if b < 0 {
			return fmt.Errorf("experiments: scenario %q: energyBudgets[%d]: negative %g", sc.Name, i, b)
		}
	}
	return nil
}

// Engine returns the scenario's simulation engine (perf harness probes),
// until Run.
func (b *BuiltScenario) Engine() *sim.Engine { return b.sub.Engine }

// Run advances virtual time to the scenario's end and aggregates the
// RunRecord from the network, the driver's in-network counters, and the
// per-flow records. It runs once: a hook-free build's substrate then
// goes back to the pool for the worker's next run.
func (b *BuiltScenario) Run() *metrics.RunRecord {
	rec := b.collect()
	if b.pooled {
		// Drop the pending-event handlers now, not at the next reuse:
		// they close over the finished run's flows, which would
		// otherwise stay reachable while the substrate sits in the pool.
		b.sub.Engine.Clear()
		substrates.Put(b.sub)
		b.sub = nil
	}
	return rec
}

// collect runs the scenario to its end and aggregates the record.
func (b *BuiltScenario) collect() *metrics.RunRecord {
	b.sub.Engine.RunUntil(sim.Time(sim.DurationOf(b.sc.Seconds)))

	rec := &metrics.RunRecord{
		Name:          b.sc.Name,
		Proto:         string(b.sc.Proto),
		Nodes:         b.sc.Nodes,
		Seconds:       b.sc.Seconds,
		TotalEnergy:   b.sub.Network.TotalEnergy(),
		PerNodeEnergy: b.sub.Network.PerNodeEnergy(),
	}
	mc := b.sub.Network.MACCounters()
	rec.QueueDrops, rec.RetryDrops = mc.QueueDrops, mc.RetryDrops
	if len(b.sc.EnergyBudgets) > 0 {
		rec.EnergyBudgets = b.sc.EnergyBudgets
		rec.BudgetDeadNodes = b.sub.Network.ExhaustedNodes()
	}
	if nr, ok := b.sub.Driver.(transport.NetReporter); ok {
		ns := nr.NetStats()
		rec.EnergyBudgetDrops = ns.EnergyBudgetDrops
		rec.CacheHits = ns.CacheHits
		rec.CacheInserts = ns.CacheInserts
	}
	if pp, ok := b.sub.Driver.(pluginHost); ok {
		rec.AttemptBudgets = attemptBudgets(pp.Plugins())
	}
	for _, fl := range b.flows {
		rec.Flows = append(rec.Flows, fl.Stats())
	}
	if b.sc.Telemetry {
		rec.Telemetry = b.telemetry(mc)
	}
	return rec
}

// pluginHost is a driver that installs iJTP plugins (JTP and JNC).
type pluginHost interface{ Plugins() []*ijtp.Plugin }

// attemptBudgets copies each node's granted-attempts histogram, in node
// id order (plugins install in node id order), into one backing array.
func attemptBudgets(pls []*ijtp.Plugin) [][]uint64 {
	buckets := len(ijtp.Counters{}.Granted)
	flat := make([]uint64, len(pls)*buckets)
	out := make([][]uint64, len(pls))
	for i, pl := range pls {
		out[i] = flat[i*buckets : (i+1)*buckets : (i+1)*buckets]
		g := pl.Counters().Granted
		copy(out[i], g[:])
	}
	return out
}

// telemetry builds the run's telemetry map from what the substrate
// already counts: the kernel's events, the network-wide MAC counters mc,
// node drops, link-state upkeep, the routing cache, the packet pool, the
// energy meters and, for JTP and JNC, the iJTP plugins and their caches
// by replacement policy. Values are sums over nodes, "_hwm" and "_max"
// keys maxima (obs.IsMax). It runs once, after time stops, so the hot
// path pays nothing for it.
func (b *BuiltScenario) telemetry(mc mac.Counters) map[string]uint64 {
	nw := b.sub.Network
	ec := b.sub.Engine.Counters()
	ls := nw.LinkStateCounters()
	nc := nw.Counters()
	rs := nw.Views().Stats()
	gets, puts, misses := nw.PacketPool().Stats()
	// Energy by activity, in nanojoules so every value stays integral.
	var txJ, rxJ float64
	for _, nd := range nw.Nodes() {
		txJ += nd.Meter.Tx()
		rxJ += nd.Meter.Rx()
	}
	t := map[string]uint64{
		"sim_events_scheduled": ec.Scheduled,
		"sim_events_fired":     ec.Fired,
		"sim_events_stopped":   ec.Stopped,
		"sim_heap_depth_hwm":   ec.HeapHWM,

		"mac_tx_attempts":        mc.TxAttempts,
		"mac_tx_success":         mc.TxSuccess,
		"mac_rx_frames":          mc.RxFrames,
		"mac_enqueues":           mc.Enqueues,
		"mac_queue_depth_hwm":    mc.QueueHWM,
		"mac_drops_queue":        mc.QueueDrops,
		"mac_drops_retries":      mc.RetryDrops,
		"mac_drops_plugin":       mc.PluginDrops,
		"mac_retries":            mc.Retries,
		"mac_frame_attempts_sum": mc.AttemptsSum,
		"mac_frame_attempts_max": mc.AttemptsMax,

		"linkstate_rows_patched":  ls.RowsPatched,
		"linkstate_patch_epochs":  ls.PatchEpochs,
		"linkstate_full_rebuilds": ls.FullRebuilds,
		"link_state_versions":     nw.LinkVersion(),

		"node_drops_no_route":    nc.NoRoute,
		"node_drops_ttl":         nc.TTLDrops,
		"node_drops_no_endpoint": nc.NoEndpoint,

		"route_fills":             rs.Fills,
		"route_bfs_computes":      rs.Computes,
		"route_cache_hits":        rs.Hits,
		"route_cache_evictions":   rs.Recycled,
		"route_views_consulted":   rs.Consulted,
		"route_views_unconsulted": rs.Unconsulted,
		"route_adj_captures":      rs.Captures,
		"route_adj_snapshots_hwm": rs.SnapshotsHWM,

		"pool_gets":   gets,
		"pool_puts":   puts,
		"pool_misses": misses,

		"energy_tx_nj": uint64(txJ * 1e9),
		"energy_rx_nj": uint64(rxJ * 1e9),
	}
	if pp, ok := b.sub.Driver.(pluginHost); ok {
		for _, pl := range pp.Plugins() {
			c := pl.Counters()
			t["ijtp_cache_served"] += c.CacheServed
			t["ijtp_energy_drops"] += c.EnergyDrops
			if ca := pl.Cache(); ca != nil {
				st := ca.Stats()
				policy := ca.Policy().String()
				t["cache_inserts_"+policy] += st.Inserts
				t["cache_hits_"+policy] += st.Hits
				t["cache_evictions_"+policy] += st.Evictions
			}
		}
	}
	return t
}

// pickEndpoints resolves -1 endpoints to random distinct reachable nodes.
func pickEndpoints(spec FlowSpec, sc Scenario, eng *sim.Engine, topo *topology.Topology, rng float64) (int, int) {
	src, dst := spec.Src, spec.Dst
	if src >= 0 && dst >= 0 {
		return src, dst
	}
	r := eng.Rand()
	for tries := 0; tries < 1000; tries++ {
		a := r.Intn(sc.Nodes)
		b := r.Intn(sc.Nodes)
		if a == b {
			continue
		}
		if topology.HopDistance(topo, rng, packet.NodeID(a), packet.NodeID(b)) >= 1 {
			return a, b
		}
	}
	return 0, sc.Nodes - 1
}
