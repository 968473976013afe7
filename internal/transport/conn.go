package transport

import "github.com/javelen/jtp/internal/metrics"

// Endpoint is one end of a connection.
type Endpoint interface {
	Start()
	Stop()
	// Done reports whether a fixed-size transfer completed at this end.
	Done() bool
	// Record adds this end's counters to the flow's record.
	Record(fr *metrics.FlowRecord)
}

// Conn bundles both ends of one connection.
type Conn[S, R Endpoint] struct {
	Sender   S
	Receiver R
}

// Start starts the receiver, then the sender, so the first packet finds
// the receiver bound.
func (c *Conn[S, R]) Start() {
	c.Receiver.Start()
	c.Sender.Start()
}

// Stop stops both ends.
func (c *Conn[S, R]) Stop() {
	c.Sender.Stop()
	c.Receiver.Stop()
}

// Done reports whether a fixed-size transfer completed end to end.
func (c *Conn[S, R]) Done() bool { return c.Sender.Done() && c.Receiver.Done() }

// NewFlow adapts a connection opened for spec to the Flow interface. The
// returned flow's Conn method exposes the connection to probes that know
// the protocol they selected.
func NewFlow[S, R Endpoint](proto string, spec FlowSpec, c *Conn[S, R]) Flow {
	return &connFlow[S, R]{proto: proto, spec: spec, conn: c}
}

type connFlow[S, R Endpoint] struct {
	proto string
	spec  FlowSpec
	conn  *Conn[S, R]
}

func (f *connFlow[S, R]) Start()            { f.conn.Start() }
func (f *connFlow[S, R]) Stop()             { f.conn.Stop() }
func (f *connFlow[S, R]) Done() bool        { return f.conn.Done() }
func (f *connFlow[S, R]) Conn() *Conn[S, R] { return f.conn }

func (f *connFlow[S, R]) Stats() *metrics.FlowRecord {
	fr := &metrics.FlowRecord{
		Proto:   f.proto,
		Flow:    uint16(f.spec.Flow),
		Src:     uint16(f.spec.Src),
		Dst:     uint16(f.spec.Dst),
		StartAt: f.spec.StartAt,
	}
	f.conn.Sender.Record(fr)
	f.conn.Receiver.Record(fr)
	return fr
}
