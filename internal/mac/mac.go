// Package mac implements a JAVeLEN-style TDMA medium-access layer
// (paper §2): pseudo-random collision-free slot schedules, per-link
// retransmission control, per-link statistics (packet loss rate and
// available transmission rate), an energy monitor charging each link-layer
// transmission/reception, and the PreXmit/PostRcv plugin hooks through
// which iJTP performs its hop-by-hop soft-state operations (Algorithms 1
// and 2).
//
// Model: time is divided into fixed slots. A global Scheduler runs one
// sim.Ticker tick per slot and hands the slot to one node, chosen by a
// pseudo-random permutation refreshed every frame (a frame is one
// tx-opportunity for every node). The slot owner transmits the head of its
// queue; everyone else's radio is off — this is what makes the system
// collision-free and ultra-low-power, and it means a node's available rate
// to a neighbor is its share of idle slots, exactly the JAVeLEN estimate
// the paper describes (§2.1.1).
package mac

import (
	"fmt"

	"github.com/javelen/jtp/internal/energy"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/stats"
)

// Segment is a transport-layer packet carried by the MAC. JTP packets,
// TCP-SACK segments and ATP segments all implement it.
type Segment interface {
	// Size returns the on-air size in bytes.
	Size() int
	// Dest returns the end-to-end destination node.
	Dest() packet.NodeID
}

// Verdict is a plugin's decision about an imminent transmission.
type Verdict int

const (
	// Continue lets the transmission proceed.
	Continue Verdict = iota
	// Drop discards the frame (e.g. energy budget exceeded, Algorithm 1
	// line 3).
	Drop
)

// LinkInfo is PreXmit's cross-layer context: the hop and the MAC-layer
// estimates iJTP's Algorithm 1 needs, all of them the MAC's own state and
// the energy model's costs. It is built once per transmission attempt,
// and only when a plugin is installed.
type LinkInfo struct {
	// From and To identify the single hop being attempted.
	From, To packet.NodeID
	// FirstAttempt is true on the first transmission attempt of this
	// frame on this hop (Algorithm 1's firstDataTransmission check).
	FirstAttempt bool
	// AttemptCost is the expected energy in joules one attempt will
	// consume (transmit plus receive side).
	AttemptCost float64
	// LossRate is the MAC's current loss-probability estimate for this
	// link (Algorithm 1's getLinkLossRate).
	LossRate float64
	// AvailRate is this node's effective available transmission rate in
	// packets/s, already normalized by the average number of link-layer
	// attempts per packet (§2.1.1's getAvailableRate / AvLinkLayerAttempts).
	AvailRate float64
}

// Plugin observes and modifies frames at the air interface. iJTP is the
// canonical plugin; the ATP baseline installs a small rate-stamping one.
type Plugin interface {
	// PreXmit runs immediately before every transmission attempt. The
	// returned verdict may drop the frame. The plugin may mutate the
	// segment (header stamping) and frame retry budget.
	PreXmit(fr *Frame, link LinkInfo) Verdict
	// PostRcv runs immediately after a successful reception at the
	// receiving node, before the frame is handed up the stack. The frame
	// is its only context: iJTP's Algorithm 2 reads nothing but the
	// segment.
	PostRcv(fr *Frame)
}

// DropReason classifies frame drops for metrics.
type DropReason int

const (
	// DropRetries means the frame exhausted its link-layer attempts.
	DropRetries DropReason = iota
	// DropQueue means the transmit queue was full on enqueue.
	DropQueue
	// DropPlugin means a plugin vetoed the transmission (energy budget).
	DropPlugin
	// DropNoRoute means the next hop was invalid at transmission time.
	DropNoRoute
)

// String names the reason.
func (r DropReason) String() string {
	switch r {
	case DropRetries:
		return "retries-exhausted"
	case DropQueue:
		return "queue-full"
	case DropPlugin:
		return "plugin-veto"
	case DropNoRoute:
		return "no-route"
	}
	return fmt.Sprintf("drop(%d)", int(r))
}

// Frame is one queued hop transmission.
type Frame struct {
	// Seg is the transport packet being carried.
	Seg Segment
	// From, To are the transmitter and next hop.
	From, To packet.NodeID
	// Attempts counts transmissions performed so far.
	Attempts int
	// MaxAttempts bounds link-layer transmissions. iJTP sets it per
	// packet from the loss-tolerance computation; it defaults to the MAC
	// configuration's MaxAttempts.
	MaxAttempts int
	// Enqueued is when the frame entered the queue (for delay metrics).
	Enqueued sim.Time

	// ls caches the transmitter's per-link stats for To, resolved once at
	// enqueue so transmission attempts skip the neighbor scan.
	ls *linkStats
}

// Config parameterizes the MAC.
type Config struct {
	// SlotDuration is the TDMA slot length.
	SlotDuration sim.Duration
	// MaxAttempts is the maximum number of link-layer transmissions the
	// MAC allows a plugin to request per frame — the paper's
	// MAX_ATTEMPTS, default 5 (Table 1).
	MaxAttempts int
	// DefaultAttempts is the per-frame transmission budget when no
	// transport-layer plugin sets one. The JAVeLEN MAC is parsimonious:
	// local retransmission happens only when the transport explicitly
	// asks for it (that is the interface JTP was designed for, §1), so
	// transports that cannot control the MAC — TCP-SACK and ATP — send
	// each frame once per link and recover losses end to end. Default 1.
	DefaultAttempts int
	// QueueCap is the transmit queue capacity in frames; overflow counts
	// as a queue drop (Fig 7(b)).
	QueueCap int
}

// The MAC's estimator parameters.
const (
	// lossAlpha is the EWMA weight of the per-link loss estimator.
	lossAlpha = 0.10
	// idleAlpha is the EWMA weight of the idle-slot (available rate)
	// estimator.
	idleAlpha = 0.15
	// attemptsAlpha is the EWMA weight of the average-attempts-per-packet
	// estimator used to normalize available rate.
	attemptsAlpha = 0.10
	// primeLoss seeds the loss estimators before any samples exist
	// (a node knows its radio's nominal link quality).
	primeLoss = 0.05
)

// Defaults returns the MAC parameters used across the reproduction:
// 25 ms slots, MAX_ATTEMPTS 5, 64-frame queues.
func Defaults() Config {
	return Config{
		SlotDuration:    25 * sim.Millisecond,
		MaxAttempts:     5,
		DefaultAttempts: 1,
		QueueCap:        64,
	}
}

// Env is the environment the MAC needs from the network: link loss draws,
// reachability, whether a radio is up, and delivery of received frames
// upward. The node package provides it.
type Env interface {
	// TransmitOK draws one Bernoulli loss trial for a transmission.
	TransmitOK(from, to packet.NodeID) bool
	// Reachable reports whether to is currently within radio range of
	// from (under mobility this changes over time).
	Reachable(from, to packet.NodeID) bool
	// TransmitsAllowed reports whether the node's radio is operational;
	// a failed node's owned slots are wasted.
	TransmitsAllowed(id packet.NodeID) bool
	// DeliverUp hands a received frame to the network layer of node `at`.
	// The frame is only valid for the duration of the call — the MAC
	// recycles it as soon as DeliverUp returns (same contract as the
	// Drops callback) — so implementations must copy anything they keep.
	// The segment itself is not recycled here and may be retained.
	DeliverUp(at packet.NodeID, fr *Frame)
}

// linkStats tracks the per-neighbor loss estimate.
type linkStats struct {
	loss stats.EWMA
}

// MAC is one node's medium-access instance.
type MAC struct {
	id      packet.NodeID
	cfg     Config
	eng     *sim.Engine
	env     Env
	model   energy.Model
	meter   *energy.Meter
	plugins []Plugin

	// queue is a ring buffer of frames: head is the next frame to
	// transmit, frames push at the tail (or, for cache retransmissions,
	// at the head) with no copying. It is allocated on the first enqueue
	// and doubles when full, up to QueueCap frames, so a node that never
	// queues deeply never holds QueueCap slots.
	queue []*Frame
	qhead int
	qlen  int
	// frFree recycles Frame structs: a frame slot returns here when its
	// hop completes (delivered or dropped), so steady-state forwarding
	// allocates no frames.
	frFree []*Frame

	// linkIDs[i] is the neighbor whose stats are links[i], created primed
	// on first use. A node talks to a handful of neighbors, so a linear
	// scan beats hashing; the entries are pointers so a frame's ls stays
	// valid as the lists grow.
	linkIDs []packet.NodeID
	links   []*linkStats

	idleFrac    stats.EWMA // fraction of owned slots with nothing to send
	avgAttempts stats.EWMA // attempts per completed frame
	ownSlotRate float64    // owned slots per second (set by the scheduler)

	// Drops is invoked on every frame drop; the node layer counts them.
	// The frame is recycled when the callback returns; observers must
	// copy what they keep (the segment may be retained, the Frame not).
	Drops func(fr *Frame, reason DropReason)

	// count is the run's accounting, read by metrics and telemetry.
	count Counters
}

// Counters is one MAC's per-run accounting. A frame terminates when it is
// delivered (TxSuccess) or dropped after its last attempt (RetryDrops);
// the attempts of terminated frames sum into AttemptsSum and peak at
// AttemptsMax.
type Counters struct {
	TxAttempts  uint64 // transmissions, each charged to the meter
	TxSuccess   uint64 // frames delivered to the next hop
	RxFrames    uint64 // frames received, each charged to the meter
	QueueDrops  uint64 // frames refused by a full queue
	RetryDrops  uint64 // frames dropped after their last attempt
	PluginDrops uint64 // frames a plugin dropped before transmission
	Enqueues    uint64 // frames accepted into the queue
	Retries     uint64 // failed attempts that left the frame queued
	QueueHWM    uint64 // deepest the queue got after an enqueue
	AttemptsSum uint64 // attempts of terminated frames
	AttemptsMax uint64 // most attempts one terminated frame took
}

// New returns a MAC for node id. The meter is shared with the node so all
// layers charge one budget.
func New(eng *sim.Engine, id packet.NodeID, cfg Config, model energy.Model, meter *energy.Meter, env Env) *MAC {
	if cfg.SlotDuration <= 0 {
		cfg.SlotDuration = Defaults().SlotDuration
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = Defaults().MaxAttempts
	}
	if cfg.DefaultAttempts <= 0 {
		cfg.DefaultAttempts = Defaults().DefaultAttempts
	}
	if cfg.DefaultAttempts > cfg.MaxAttempts {
		cfg.DefaultAttempts = cfg.MaxAttempts
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = Defaults().QueueCap
	}
	m := &MAC{id: id, cfg: cfg, eng: eng, env: env, model: model, meter: meter}
	m.primeEstimators()
	return m
}

// primeEstimators sets the node-wide estimators to their priors: every
// owned slot idle, one attempt per frame.
func (m *MAC) primeEstimators() {
	m.idleFrac = *stats.NewEWMA(idleAlpha)
	m.idleFrac.Set(1)
	m.avgAttempts = *stats.NewEWMA(attemptsAlpha)
	m.avgAttempts.Set(1)
}

// primeLink sets a link's loss estimate to the radio's nominal loss.
func (m *MAC) primeLink(ls *linkStats) {
	ls.loss = *stats.NewEWMA(lossAlpha)
	ls.loss.Set(primeLoss)
}

// Clear returns the MAC to the state New left it in, for another run on
// the same node: the queue is emptied, counters zeroed and estimators
// re-primed. Plugins stay installed, and those with state of their own
// (a Clear method) are cleared too. The queue, the frame free-list and
// the per-link entries keep their storage; an entry re-primed is what a
// first lookup would create.
func (m *MAC) Clear() {
	for _, p := range m.plugins {
		if c, ok := p.(interface{ Clear() }); ok {
			c.Clear()
		}
	}
	m.ClearQueue()
	for _, ls := range m.links {
		m.primeLink(ls)
	}
	m.primeEstimators()
	m.count = Counters{}
}

// AddPlugin installs a PreXmit/PostRcv plugin. Plugins run in
// installation order.
func (m *MAC) AddPlugin(p Plugin) { m.plugins = append(m.plugins, p) }

// getFrame takes a frame from the free-list (or the heap on a cold start)
// and initializes it for one hop.
func (m *MAC) getFrame(seg Segment, nextHop packet.NodeID) *Frame {
	var fr *Frame
	if n := len(m.frFree); n > 0 {
		fr = m.frFree[n-1]
		m.frFree = m.frFree[:n-1]
	} else {
		fr = new(Frame)
	}
	fr.Seg = seg
	fr.From = m.id
	fr.To = nextHop
	fr.Attempts = 0
	fr.MaxAttempts = m.cfg.DefaultAttempts
	fr.Enqueued = m.eng.Now()
	fr.ls = m.link(nextHop)
	return fr
}

// releaseFrame recycles a frame whose hop has terminated. The segment
// reference is dropped; the segment itself may live on (delivered, cached,
// or awaiting GC after a drop).
func (m *MAC) releaseFrame(fr *Frame) {
	fr.Seg = nil
	fr.ls = nil
	m.frFree = append(m.frFree, fr)
}

// dropFull counts a queue-overflow drop and notifies, without retaining
// the scratch frame.
func (m *MAC) dropFull(seg Segment, nextHop packet.NodeID) {
	m.count.QueueDrops++
	if m.Drops != nil {
		fr := m.getFrame(seg, nextHop)
		m.Drops(fr, DropQueue)
		m.releaseFrame(fr)
	}
}

// makeRoom grows a full ring to twice its size (at least 8 frames, at
// most QueueCap), unrolling it so the head lands at index 0. Callers
// have checked qlen < QueueCap.
func (m *MAC) makeRoom() {
	if m.qlen < len(m.queue) {
		return
	}
	q := make([]*Frame, min(max(2*len(m.queue), 8), m.cfg.QueueCap))
	k := copy(q, m.queue[m.qhead:])
	copy(q[k:], m.queue[:m.qhead])
	m.queue, m.qhead = q, 0
}

// Enqueue queues a segment for transmission to nextHop. It reports false
// (and counts a queue drop) when the queue is full.
func (m *MAC) Enqueue(seg Segment, nextHop packet.NodeID) bool {
	if m.qlen >= m.cfg.QueueCap {
		m.dropFull(seg, nextHop)
		return false
	}
	m.makeRoom()
	tail := m.qhead + m.qlen
	if tail >= len(m.queue) {
		tail -= len(m.queue)
	}
	m.queue[tail] = m.getFrame(seg, nextHop)
	m.enqueued()
	return true
}

// enqueued counts a frame the queue accepted.
func (m *MAC) enqueued() {
	m.qlen++
	m.count.Enqueues++
	m.count.QueueHWM = max(m.count.QueueHWM, uint64(m.qlen))
}

// EnqueueFront queues a segment ahead of everything else; iJTP uses it for
// cache retransmissions so locally recovered packets reach the destination
// before the next feedback window.
func (m *MAC) EnqueueFront(seg Segment, nextHop packet.NodeID) bool {
	if m.qlen >= m.cfg.QueueCap {
		m.dropFull(seg, nextHop)
		return false
	}
	m.makeRoom()
	m.qhead--
	if m.qhead < 0 {
		m.qhead += len(m.queue)
	}
	m.queue[m.qhead] = m.getFrame(seg, nextHop)
	m.enqueued()
	return true
}

// link returns (creating if needed) the stats for a neighbor. Its loss
// estimate is Algorithm 1's getLinkLossRate, primed with the nominal
// radio loss before any traffic is observed.
func (m *MAC) link(to packet.NodeID) *linkStats {
	for i, id := range m.linkIDs {
		if id == to {
			return m.links[i]
		}
	}
	ls := new(linkStats)
	m.primeLink(ls)
	m.linkIDs = append(m.linkIDs, to)
	m.links = append(m.links, ls)
	return ls
}

// AvailableRate returns this node's raw available transmission rate in
// packets/s: the idle fraction of its TDMA slots times its slot share.
func (m *MAC) AvailableRate() float64 {
	return m.idleFrac.Value() * m.ownSlotRate
}

// AvgAttempts returns the average link-layer transmissions per completed
// frame, used to normalize the available rate (§2.1.1).
func (m *MAC) AvgAttempts() float64 {
	a := m.avgAttempts.Value()
	if a < 1 {
		return 1
	}
	return a
}

// EffectiveAvailRate returns the available rate normalized by the average
// number of link-layer attempts and derated by queue occupancy — the
// value iJTP stamps into packets. A backlogged node has no spare
// capacity no matter what its recent idle-slot history says; folding the
// queue in makes the stamp collapse toward zero as congestion sets in,
// which is exactly the signal the destination's controller needs to
// avoid queue losses (§2.1.1).
func (m *MAC) EffectiveAvailRate() float64 {
	avail := m.AvailableRate() / m.AvgAttempts()
	occupancy := float64(m.qlen) / float64(m.cfg.QueueCap)
	derate := 1 - 2*occupancy
	if derate < 0 {
		derate = 0
	}
	return avail * derate
}

// Counters returns the MAC's per-run accounting.
func (m *MAC) Counters() Counters { return m.count }

// linkInfo builds the plugin context for the head frame.
func (m *MAC) linkInfo(fr *Frame) LinkInfo {
	size := fr.Seg.Size()
	return LinkInfo{
		From:         m.id,
		To:           fr.To,
		FirstAttempt: fr.Attempts == 0,
		AttemptCost:  m.model.TxCost(size) + m.model.RxCost(size),
		LossRate:     fr.ls.loss.Value(),
		AvailRate:    m.EffectiveAvailRate(),
	}
}

// ClearQueue discards all pending frames (node failure: the backlog
// dies with the node).
func (m *MAC) ClearQueue() {
	for m.qlen > 0 {
		m.releaseFrame(m.popHead())
	}
	m.qhead = 0
}

// OwnSlot runs one owned TDMA slot: transmit the head frame if any,
// otherwise record an idle slot. Called by the Scheduler.
func (m *MAC) OwnSlot() {
	if !m.env.TransmitsAllowed(m.id) {
		return
	}
	if m.qlen == 0 {
		m.idleFrac.Add(1)
		return
	}
	m.idleFrac.Add(0)
	fr := m.queue[m.qhead]

	if !m.env.Reachable(m.id, fr.To) {
		// Next hop moved away: the attempt fails without consuming air
		// energy beyond the transmission itself; we model it as a failed
		// attempt so retry exhaustion (and rerouting of later packets)
		// takes its course.
		m.failAttempt(fr)
		return
	}

	if len(m.plugins) > 0 { // LinkInfo is plugin context; skip it when nobody reads it
		info := m.linkInfo(fr)
		for _, p := range m.plugins {
			if p.PreXmit(fr, info) == Drop {
				m.count.PluginDrops++
				m.popHead()
				if m.Drops != nil {
					m.Drops(fr, DropPlugin)
				}
				m.releaseFrame(fr)
				return
			}
		}
	}

	// Transmit: sender pays for the attempt whether or not it succeeds.
	size := fr.Seg.Size()
	m.meter.ChargeTx(m.model.TxCost(size))
	m.count.TxAttempts++
	fr.Attempts++

	if m.env.TransmitOK(m.id, fr.To) {
		fr.ls.loss.Add(0)
		m.count.TxSuccess++
		m.avgAttempts.Add(float64(fr.Attempts))
		m.terminated(fr)
		m.popHead()
		m.env.DeliverUp(fr.To, fr)
		m.releaseFrame(fr)
		return
	}
	fr.ls.loss.Add(1)
	m.retryOrDrop(fr)
}

// failAttempt charges an attempt that could not reach the receiver at
// all.
func (m *MAC) failAttempt(fr *Frame) {
	m.meter.ChargeTx(m.model.TxCost(fr.Seg.Size()))
	m.count.TxAttempts++
	fr.Attempts++
	fr.ls.loss.Add(1)
	m.retryOrDrop(fr)
}

// retryOrDrop keeps the frame at the head for another attempt or drops it
// once attempts are exhausted.
func (m *MAC) retryOrDrop(fr *Frame) {
	if fr.Attempts < fr.MaxAttempts {
		m.count.Retries++
		return // head of queue retries on the next owned slot
	}
	m.count.RetryDrops++
	m.terminated(fr)
	m.popHead()
	if m.Drops != nil {
		m.Drops(fr, DropRetries)
	}
	m.releaseFrame(fr)
}

// terminated accounts the attempts of a frame whose hop is over.
func (m *MAC) terminated(fr *Frame) {
	m.count.AttemptsSum += uint64(fr.Attempts)
	m.count.AttemptsMax = max(m.count.AttemptsMax, uint64(fr.Attempts))
}

// popHead removes and returns the head frame in O(1) (ring buffer).
func (m *MAC) popHead() *Frame {
	fr := m.queue[m.qhead]
	m.queue[m.qhead] = nil
	m.qhead++
	if m.qhead == len(m.queue) {
		m.qhead = 0
	}
	m.qlen--
	return fr
}

// receive processes an incoming frame at this (receiving) MAC: charges
// reception energy and runs PostRcv plugins. The node layer then routes or
// delivers the segment.
func (m *MAC) receive(fr *Frame) {
	m.meter.ChargeRx(m.model.RxCost(fr.Seg.Size()))
	m.count.RxFrames++
	for _, p := range m.plugins {
		p.PostRcv(fr)
	}
}

// Receive is the entry point the Env uses to hand a frame to the
// destination MAC of a hop.
func (m *MAC) Receive(fr *Frame) { m.receive(fr) }

// Scheduler owns the global TDMA schedule: one tick per slot, slot owner
// drawn from a pseudo-random permutation refreshed every frame, giving
// every node exactly one transmit opportunity per frame without
// collisions — the JAVeLEN MAC's pseudo-random schedules (§2).
type Scheduler struct {
	eng   *sim.Engine
	slot  sim.Duration
	macs  []*MAC
	perm  []int
	pos   int
	slots uint64
}

// NewScheduler builds a schedule over the given MACs. All MACs must share
// the same slot duration.
func NewScheduler(eng *sim.Engine, slot sim.Duration, macs []*MAC) *Scheduler {
	s := &Scheduler{eng: eng, slot: slot, macs: macs}
	s.perm = make([]int, len(macs))
	for i := range s.perm {
		s.perm[i] = i
	}
	rate := 1.0 / (slot.Seconds() * float64(len(macs)))
	for _, m := range macs {
		m.ownSlotRate = rate
	}
	return s
}

// Clear rewinds the schedule to the state NewScheduler left it in:
// slot count zero and the identity permutation, which Start shuffles.
func (s *Scheduler) Clear() {
	for i := range s.perm {
		s.perm[i] = i
	}
	s.pos, s.slots = 0, 0
}

// Start begins slot processing.
func (s *Scheduler) Start() {
	s.shuffle()
	s.eng.NewTicker(s.slot, s.onSlot)
}

// Slots returns the number of slots elapsed.
func (s *Scheduler) Slots() uint64 { return s.slots }

func (s *Scheduler) shuffle() {
	r := s.eng.Rand()
	for i := len(s.perm) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
	}
	s.pos = 0
}

func (s *Scheduler) onSlot() {
	owner := s.macs[s.perm[s.pos]]
	owner.OwnSlot()
	s.slots++
	s.pos++
	if s.pos == len(s.perm) {
		s.shuffle()
	}
}
