// Package trace is a lightweight per-packet event tracer for the
// simulated stack: a bounded ring of structured events (enqueue,
// transmit, drop, deliver, cache-serve, feedback) that experiments and
// debugging sessions can attach via the MAC/network hooks and dump as
// text. Tracing is off the hot path unless a Tracer is installed.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/javelen/jtp/internal/packet"
)

// Kind classifies trace events.
type Kind uint8

// Event kinds.
const (
	// Enqueue: a segment entered a node's MAC queue.
	Enqueue Kind = iota
	// Transmit: one link-layer transmission attempt.
	Transmit
	// Deliver: a segment reached its destination endpoint.
	Deliver
	// Forwarded: a transit segment was routed onward.
	Forwarded
	// Drop: a frame was discarded (queue, retries, plugin, route).
	Drop
	// CacheServe: an iJTP cache answered a SNACK.
	CacheServe
	// Feedback: a receiver emitted an ACK.
	Feedback
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Enqueue:
		return "enqueue"
	case Transmit:
		return "transmit"
	case Deliver:
		return "deliver"
	case Forwarded:
		return "forward"
	case Drop:
		return "drop"
	case CacheServe:
		return "cache-serve"
	case Feedback:
		return "feedback"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one trace record.
type Event struct {
	// T is virtual seconds.
	T float64
	// Node is where the event happened.
	Node packet.NodeID
	// Kind classifies the event.
	Kind Kind
	// Flow and Seq identify the packet when applicable.
	Flow packet.FlowID
	Seq  uint32
	// Detail is a short free-form annotation (drop reason, next hop).
	Detail string
}

// String renders one line.
func (e Event) String() string {
	s := fmt.Sprintf("%10.3fs %-4v %-11s flow=%d seq=%d", e.T, e.Node, e.Kind, e.Flow, e.Seq)
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Tracer is a bounded ring of events. The zero value is unusable;
// construct with New. Not safe for concurrent use (the simulator is
// single-goroutine).
type Tracer struct {
	ring  []Event
	next  int
	count uint64
}

// New returns a tracer retaining the last n events.
func New(n int) *Tracer {
	if n <= 0 {
		n = 1024
	}
	return &Tracer{ring: make([]Event, 0, n)}
}

// Add records an event, evicting the oldest when full.
func (t *Tracer) Add(e Event) {
	t.count++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
		return
	}
	t.ring[t.next] = e
	t.next = (t.next + 1) % cap(t.ring)
}

// Len returns the number of retained events.
func (t *Tracer) Len() int { return len(t.ring) }

// Total returns the number of events ever recorded, evicted ones
// included.
func (t *Tracer) Total() uint64 { return t.count }

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []Event {
	out := make([]Event, 0, len(t.ring))
	if len(t.ring) < cap(t.ring) {
		return append(out, t.ring...)
	}
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// Dump writes the retained events, one per line.
func (t *Tracer) Dump(w io.Writer) error {
	for _, e := range t.Events() {
		if _, err := io.WriteString(w, e.String()+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// jsonEvent is the JSONL shape of one trace event. Field order is fixed
// by the struct, so lines are deterministic for a deterministic run.
type jsonEvent struct {
	T      float64 `json:"t"`
	Node   uint16  `json:"node"`
	Kind   string  `json:"kind"`
	Flow   uint16  `json:"flow"`
	Seq    uint32  `json:"seq"`
	Detail string  `json:"detail,omitempty"`
}

// WriteJSON writes the retained events as JSON Lines (one object per
// event, chronological order) — the structured sibling of Dump.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range t.Events() {
		je := jsonEvent{
			T:      e.T,
			Node:   uint16(e.Node),
			Kind:   e.Kind.String(),
			Flow:   uint16(e.Flow),
			Seq:    e.Seq,
			Detail: e.Detail,
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders per-kind counts of retained events.
func (t *Tracer) Summary() string {
	counts := map[Kind]int{}
	for _, e := range t.Events() {
		counts[e.Kind]++
	}
	var b strings.Builder
	for k := Enqueue; k <= Feedback; k++ {
		if counts[k] > 0 {
			fmt.Fprintf(&b, "%-12s %d\n", k.String(), counts[k])
		}
	}
	return b.String()
}
