// Package transport defines the pluggable transport-driver layer: the
// Driver and Flow interfaces every protocol under test implements, and
// the name→factory registry that makes "which transport" an open,
// runtime-selected axis instead of a compile-time enum.
//
// A Driver is instantiated once per simulation run. Attach installs the
// protocol's in-network machinery on a built (not yet started) network —
// iJTP caching/attempt-control plugins for JTP, rate stampers for ATP,
// nothing for plain end-to-end protocols. OpenFlow then dials one flow;
// the returned Flow exposes uniform lifecycle control and a
// protocol-independent metrics.FlowRecord, so the experiment harness,
// the batch campaign engine and the public jtp API never switch on the
// protocol name.
//
// Protocol packages register their drivers from init; importing
// internal/transport/drivers pulls in every built-in protocol.
//
// The package also holds what the protocols share: Source and Sink, the
// paced sending end and the counting receiving end every protocol's
// endpoints embed; Window, Ring and RetxQueue, their bounded sequence
// bookkeeping; Conn and NewFlow, which turn two endpoints into a Flow;
// and, for the end-to-end baselines, the Wire segment format, Dial and
// RegisterBaseline.
package transport

import (
	"github.com/javelen/jtp/internal/cache"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/node"
	"github.com/javelen/jtp/internal/packet"
)

// FlowSpec is the protocol-independent description of one flow. Knobs a
// protocol does not support are ignored (the reliable baselines ignore
// LossTolerance, for example — they are always fully reliable).
type FlowSpec struct {
	// Flow is the flow id both endpoints bind.
	Flow packet.FlowID
	// Src and Dst are the endpoints.
	Src, Dst packet.NodeID
	// StartAt is when the flow starts, in virtual seconds (metadata for
	// the flow record and goodput accounting; scheduling is the
	// caller's job).
	StartAt float64
	// TotalPackets bounds the transfer; 0 = unbounded stream.
	TotalPackets int
	// LossTolerance is the application's end-to-end loss tolerance.
	LossTolerance float64
	// DisableBackoff turns off source back-off (JTP §4.2 ablation).
	DisableBackoff bool
	// DisableRetransmissions makes the receiver never request
	// retransmission (a UDP-like flow).
	DisableRetransmissions bool
	// ConstantFeedbackRate forces fixed-rate feedback in packets/s.
	ConstantFeedbackRate float64
	// InitialRate overrides the flow's starting rate in packets/s.
	InitialRate float64
	// MaxRate overrides the flow's rate ceiling in packets/s.
	MaxRate float64
	// DeadlineAfter, when positive, marks packets worthless this many
	// seconds after first transmission.
	DeadlineAfter float64
}

// NetConfig carries the scenario-level knobs a driver may consult when
// attaching its in-network machinery.
type NetConfig struct {
	// MaxAttempts is the per-link transmission ceiling the MAC enforces
	// (0 keeps the driver's default).
	MaxAttempts int
	// CacheCapacity overrides in-network cache sizes when > 0; negative
	// disables caching entirely. Ignored by cacheless protocols.
	CacheCapacity int
	// CachePolicy selects the cache replacement policy.
	CachePolicy cache.Policy
	// TLowerBound overrides the feedback-interval lower bound in
	// seconds when > 0. Ignored by protocols without one.
	TLowerBound float64
}

// Flow is one transport connection under test: uniform lifecycle control
// plus protocol-independent metrics. Every figure derived from the
// flow's counters (delivered packets, goodput, retransmissions) is read
// from Stats, so the record is the one source of truth.
type Flow interface {
	// Start begins (or resumes) transmission.
	Start()
	// Stop halts the flow.
	Stop()
	// Done reports whether a fixed-size transfer completed.
	Done() bool
	// Stats snapshots the flow as a protocol-independent record.
	Stats() *metrics.FlowRecord
}

// Driver is one transport protocol's adapter. A Driver instance is
// created per run via its registered Factory and is only used from the
// run's (single-threaded) simulation context.
type Driver interface {
	// Attach installs the protocol's per-node in-network machinery on a
	// built network, before traffic starts. It must be called exactly
	// once, before OpenFlow.
	Attach(nw *node.Network, cfg NetConfig) error
	// OpenFlow dials one flow on the attached network.
	OpenFlow(spec FlowSpec) (Flow, error)
}

// NetStats aggregates a driver's in-network counters for a run.
type NetStats struct {
	// EnergyBudgetDrops counts packets dropped for exceeding their
	// energy budget.
	EnergyBudgetDrops uint64
	// CacheHits counts cache-served (local) retransmissions.
	CacheHits uint64
	// CacheInserts counts cache insertions.
	CacheInserts uint64
}

// NetReporter is implemented by drivers whose in-network machinery
// contributes run-level counters (JTP's caching plugins). Drivers
// without such machinery simply don't implement it.
type NetReporter interface {
	NetStats() NetStats
}

// Exclusive is implemented by drivers whose Attach installs in-network
// machinery that acts on the protocol family's packets regardless of
// which driver instance installed it — attaching two such drivers with
// the same key on one network would double-process every packet (the
// iJTP plugins of "jtp" and "jnc" would each charge energy and answer
// SNACKs). Hosts that attach multiple drivers to one network must
// refuse a second driver with an already-attached key.
type Exclusive interface {
	// ExclusiveKey names the shared in-network machinery ("ijtp").
	ExclusiveKey() string
}

// GoodputNow returns a flow's delivered bits per second of active time
// as of the given virtual time, 0 when the flow has not been active
// (the public API's historical semantics, as opposed to
// FlowRecord.GoodputBps's epsilon clamp for run-end aggregation).
func GoodputNow(fr *metrics.FlowRecord, now float64) float64 {
	end := now
	if fr.Completed && fr.CompletedAt > 0 {
		end = fr.CompletedAt
	}
	active := end - fr.StartAt
	if active <= 0 {
		return 0
	}
	return float64(fr.DeliveredBytes*8) / active
}
