package transport

import (
	"fmt"

	"github.com/javelen/jtp/internal/node"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/pool"
)

// Wire sizes of the end-to-end baselines: a 40-byte TCP/IP header, which
// carries the sequence number and cumulative ACK, and 8 bytes per SACK
// or SNACK range.
const (
	HeaderSize = 40
	RangeSize  = 8
)

// Wire is the segment format the end-to-end baselines share. A
// protocol's segment type embeds it, adds its kind and any fields of its
// own, and formats itself for traces.
type Wire struct {
	Src, Dst   packet.NodeID
	Flow       packet.FlowID
	Retx       bool
	Seq        uint32
	CumAck     uint32
	Ranges     []packet.SeqRange // SACK or SNACK ranges
	PayloadLen int
	hops       int
}

// Size returns the on-air size (mac.Segment).
func (w *Wire) Size() int { return HeaderSize + w.PayloadLen + RangeSize*len(w.Ranges) }

// Dest returns the destination endpoint (mac.Segment).
func (w *Wire) Dest() packet.NodeID { return w.Dst }

// FlowID returns the flow (node.FlowKeyed).
func (w *Wire) FlowID() packet.FlowID { return w.Flow }

// AddHop increments the loop-backstop hop counter.
func (w *Wire) AddHop() int {
	w.hops++
	return w.hops
}

func (w *Wire) wire() *Wire { return w }

// segment is a pointer to a protocol's segment type.
type segment[T any] interface {
	*T
	wire() *Wire
}

// Dial opens a baseline connection: both ends share one free-list of
// the protocol's segments T. Each segment has exactly one terminal
// consumer — DATA the receiver, feedback the sender; nothing in the
// network retains them — so each end recycles what it is delivered and
// draws what it sends. A recycled segment keeps its range array for the
// next feedback to append into.
func Dial[T any, P segment[T], S, R Endpoint](nw *node.Network, cfg Config,
	newSender func(*node.Network, Config, *pool.FreeList[T]) S,
	newReceiver func(*node.Network, Config, *pool.FreeList[T]) R) *Conn[S, R] {
	segs := pool.New(func(s *T) {
		rs := P(s).wire().Ranges[:0]
		var zero T
		*s = zero
		P(s).wire().Ranges = rs
	})
	return &Conn[S, R]{Sender: newSender(nw, cfg, segs), Receiver: newReceiver(nw, cfg, segs)}
}

// RegisterBaseline registers an end-to-end baseline under name. Its
// driver runs install (when non-nil) once on the network it attaches
// to, and dials each flow from Defaults with the FlowSpec's transfer
// length and rate overrides. The baselines are always fully reliable, so
// a FlowSpec's reliability knobs do not apply.
func RegisterBaseline[S, R Endpoint](name string, install func(*node.Network), dial func(*node.Network, Config) *Conn[S, R]) {
	MustRegister(name, func() Driver {
		return &e2eDriver{name: name, install: install, open: func(nw *node.Network, spec FlowSpec) Flow {
			cfg := Defaults(spec.Flow, spec.Src, spec.Dst)
			cfg.TotalPackets = spec.TotalPackets
			if spec.InitialRate > 0 {
				cfg.InitialRate = spec.InitialRate
			}
			if spec.MaxRate > 0 {
				cfg.MaxRate = spec.MaxRate
			}
			return NewFlow(name, spec, dial(nw, cfg))
		}}
	})
}

type e2eDriver struct {
	name    string
	install func(*node.Network)
	open    func(*node.Network, FlowSpec) Flow
	nw      *node.Network
}

func (d *e2eDriver) Attach(nw *node.Network, _ NetConfig) error {
	if d.nw != nil {
		return fmt.Errorf("transport: driver %q already attached", d.name)
	}
	d.nw = nw
	if d.install != nil {
		d.install(nw)
	}
	return nil
}

func (d *e2eDriver) OpenFlow(spec FlowSpec) (Flow, error) {
	if d.nw == nil {
		return nil, fmt.Errorf("transport: driver %q not attached", d.name)
	}
	return d.open(d.nw, spec), nil
}
