// Package obs is the simulation telemetry substrate: a dependency-free
// registry of named counters, gauges and histograms that is zero-cost
// when disabled.
//
// The design follows the repository's nil-gating idiom (node.Network's
// traceSeg, packet.Pool's nil receiver):
//
//   - Handles are pointers resolved once at setup (Registry.Counter and
//     friends). Hot-path instrumentation holds the pointer, never the
//     name, so an increment is one predictable nil-check plus one atomic
//     add — no map lookup, no interface call.
//   - Every handle method is a no-op on a nil receiver, and a nil
//     *Registry hands out nil handles, so uninstrumented runs execute
//     the exact disabled path with no configuration plumbing.
//   - Values are updated atomically. Every exported aggregate is commutative:
//     counters and histogram counts/sums add, gauges and histogram maxima
//     take maxima (IsMax tells which), so snapshots merge in any order.
//     Campaign workers each own a private Registry; per-run Snapshots
//     are merged by the campaign's deterministic in-order fold, which is
//     what makes concurrent readers (expvar) race-free — they only ever
//     see folded aggregates.
//
// Snapshot flattens everything into a map[string]uint64: a counter
// exports its name, a gauge exports "<name>_hwm" (its high-water mark),
// and a histogram exports "<name>_count", "<name>_sum" and "<name>_max".
// Merging snapshots by name, "_hwm"/"_max" keys by maximum and everything
// else by sum, yields exactly the aggregate a single shared registry
// would have seen. Tests read instruments through Snapshot too.
package obs

import "sync/atomic"

// Counter is a monotonically increasing event count. The zero value is
// ready; a nil *Counter ignores all writes (disabled telemetry).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge tracks the high-water mark of a level (queue depth, heap depth).
// A nil *Gauge ignores all writes.
type Gauge struct {
	hwm atomic.Uint64
}

// Update reports the current level, advancing the high-water mark.
func (g *Gauge) Update(v uint64) {
	if g == nil {
		return
	}
	for {
		cur := g.hwm.Load()
		if v <= cur || g.hwm.CompareAndSwap(cur, v) {
			return
		}
	}
}

// HighWater returns the maximum level ever Updated (0 on a nil gauge).
func (g *Gauge) HighWater() uint64 {
	if g == nil {
		return 0
	}
	return g.hwm.Load()
}

// Histogram summarizes a value distribution by count, sum and max. A nil
// *Histogram ignores all writes.
type Histogram struct {
	count atomic.Uint64
	sum   atomic.Uint64
	max   atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Registry is a create-or-get directory of named instruments. The zero
// value is unusable; construct with New. A nil *Registry hands out nil
// handles, so callers wire telemetry unconditionally and pay nothing
// when it is off. Handle creation and snapshotting are not safe for
// concurrent use: one registry belongs to one run.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (the no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot flattens the registry into a name → value map: counters by
// name, gauges as "<name>_hwm", histograms as "<name>_count"/"_sum"/
// "_max". Zero-valued instruments are included, so a run's snapshot
// always carries the full schema it was instrumented with.
func (r *Registry) Snapshot() map[string]uint64 {
	if r == nil {
		return nil
	}
	out := make(map[string]uint64, len(r.counters)+len(r.gauges)+3*len(r.hists))
	r.SnapshotInto(out)
	return out
}

// SnapshotInto writes the snapshot into m (callers reusing a map).
func (r *Registry) SnapshotInto(m map[string]uint64) {
	if r == nil {
		return
	}
	for name, c := range r.counters {
		m[name] = c.v.Load()
	}
	for name, g := range r.gauges {
		m[name+"_hwm"] = g.hwm.Load()
	}
	for name, h := range r.hists {
		m[name+"_count"] = h.count.Load()
		m[name+"_sum"] = h.sum.Load()
		m[name+"_max"] = h.max.Load()
	}
}

// IsMax reports whether a snapshot key merges by maximum rather than by
// sum: gauge high-water marks and histogram maxima.
func IsMax(name string) bool {
	return hasSuffix(name, "_hwm") || hasSuffix(name, "_max")
}

// hasSuffix avoids importing strings (the package is dependency-free so
// every simulation layer can import it without cycles or weight).
func hasSuffix(s, suffix string) bool {
	return len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix
}
