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
//     take maxima, so snapshots merge in any order. Campaign workers
//     each own a private Registry; per-run Snapshots are merged by
//     the campaign's deterministic in-order fold, which is what makes
//     concurrent readers (expvar) race-free — they only ever see folded
//     aggregates.
//
// Snapshot flattens everything into a map[string]uint64: a counter
// exports its name, a gauge exports "<name>_hwm" (its high-water mark),
// and a histogram exports "<name>_count", "<name>_sum" and "<name>_max".
// Merge folds one snapshot into another by name: "_hwm"/"_max" keys take
// the maximum, everything else sums — so merging per-run snapshots
// yields exactly the aggregate a single shared registry would have seen.
package obs

import (
	"sort"
	"sync/atomic"
)

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

// Gauge tracks an instantaneous level and its high-water mark (queue
// depth, heap depth). A nil *Gauge ignores all writes. Only the
// high-water mark is exported in snapshots; the instantaneous level is a
// last-writer-wins convenience for live inspection.
type Gauge struct {
	v   atomic.Uint64
	hwm atomic.Uint64
}

// Update sets the current level, advancing the high-water mark.
func (g *Gauge) Update(v uint64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		cur := g.hwm.Load()
		if v <= cur || g.hwm.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current level (0 on a nil gauge).
func (g *Gauge) Value() uint64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HighWater returns the maximum level ever Updated (0 on a nil gauge).
func (g *Gauge) HighWater() uint64 {
	if g == nil {
		return 0
	}
	return g.hwm.Load()
}

// Histogram summarizes a value distribution: count, sum, max, and
// power-of-two buckets (bucket i counts observations v with
// 2^(i-1) <= v < 2^i; bucket 0 counts v <= 1). A nil *Histogram ignores
// all writes.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [16]atomic.Uint64
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
			break
		}
	}
	b := 0
	for x := v; x > 1 && b < len(h.buckets)-1; x >>= 1 {
		b++
	}
	h.buckets[b].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observed value.
func (h *Histogram) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Bucket returns the i-th power-of-two bucket count (tests and live
// inspection; buckets are not exported in snapshots).
func (h *Histogram) Bucket(i int) uint64 {
	if h == nil || i < 0 || i >= len(h.buckets) {
		return 0
	}
	return h.buckets[i].Load()
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

// Names returns every snapshot key the registry would emit, sorted
// (deterministic column sets for reports).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// IsMax reports whether a snapshot key merges by maximum rather than by
// sum: gauge high-water marks and histogram maxima.
func IsMax(name string) bool {
	return hasSuffix(name, "_hwm") || hasSuffix(name, "_max")
}

// Merge folds snapshot src into dst: "_hwm"/"_max" keys take the
// maximum, all other keys sum. Merging per-run snapshots in any order
// yields the same result, but the campaign folds them in run order
// anyway (determinism is structural, not incidental).
func Merge(dst, src map[string]uint64) {
	for k, v := range src {
		if IsMax(k) {
			if v > dst[k] {
				dst[k] = v
			}
			continue
		}
		dst[k] += v
	}
}

// hasSuffix avoids importing strings (the package is dependency-free so
// every simulation layer can import it without cycles or weight).
func hasSuffix(s, suffix string) bool {
	return len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix
}
