package obs

import (
	"reflect"
	"testing"
)

// Disabled telemetry is a nil registry handing out nil handles; every
// operation must be a silent no-op.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(5)
	g.Update(9)
	h.Observe(7)
	if c.Value() != 0 || g.HighWater() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	r.SnapshotInto(map[string]uint64{})
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	c := r.Counter("events")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	if r.Counter("events") != c {
		t.Fatal("Counter must be create-or-get")
	}

	g := r.Gauge("depth")
	g.Update(3)
	g.Update(7)
	g.Update(2)
	if g.HighWater() != 7 {
		t.Fatalf("gauge hwm = %d, want 7", g.HighWater())
	}

	h := r.Histogram("attempts")
	for _, v := range []uint64{0, 1, 2, 3, 100, 4} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if snap["attempts_count"] != 6 || snap["attempts_sum"] != 110 || snap["attempts_max"] != 100 {
		t.Fatalf("hist = %v, want count 6, sum 110, max 100", snap)
	}
}

func TestSnapshotAndNames(t *testing.T) {
	r := New()
	r.Counter("a").Add(4)
	r.Gauge("q").Update(11)
	r.Histogram("att").Observe(3)
	want := map[string]uint64{
		"a":         4,
		"q_hwm":     11,
		"att_count": 1,
		"att_sum":   3,
		"att_max":   3,
	}
	if got := r.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot = %v, want %v", got, want)
	}
}

// TestMergeSemantics pins which snapshot keys merge across runs by
// maximum (gauge high-water marks, histogram maxima); all others sum.
func TestMergeSemantics(t *testing.T) {
	if !IsMax("q_hwm") || !IsMax("att_max") || IsMax("events") || IsMax("maxwell") {
		t.Fatal("IsMax suffix classification wrong")
	}
}
