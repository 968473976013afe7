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

// Conn bundles both ends of one connection. Opened for a FlowSpec by
// NewFlow, it is the Flow; probes that know the protocol they selected
// assert the Flow back to the protocol's *Conn.
type Conn[S, R Endpoint] struct {
	Sender   S
	Receiver R

	proto string // NewFlow's protocol name and spec, for Stats
	spec  FlowSpec
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

// Stats snapshots the connection as the record of the flow NewFlow
// opened it for (Flow).
func (c *Conn[S, R]) Stats() *metrics.FlowRecord {
	fr := &metrics.FlowRecord{
		Proto:   c.proto,
		Flow:    uint16(c.spec.Flow),
		Src:     uint16(c.spec.Src),
		Dst:     uint16(c.spec.Dst),
		StartAt: c.spec.StartAt,
	}
	c.Sender.Record(fr)
	c.Receiver.Record(fr)
	return fr
}

// NewFlow adapts a connection opened for spec to the Flow interface.
func NewFlow[S, R Endpoint](proto string, spec FlowSpec, c *Conn[S, R]) Flow {
	c.proto, c.spec = proto, spec
	return c
}
