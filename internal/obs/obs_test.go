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
	if c.Value() != 0 || g.Value() != 0 || g.HighWater() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Bucket(0) != 0 {
		t.Fatal("nil histogram must read as zero")
	}
	if r.Snapshot() != nil || r.Names() != nil {
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
	if g.Value() != 2 || g.HighWater() != 7 {
		t.Fatalf("gauge = (%d, hwm %d), want (2, 7)", g.Value(), g.HighWater())
	}

	h := r.Histogram("attempts")
	for _, v := range []uint64{0, 1, 2, 3, 4, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 110 || h.Max() != 100 {
		t.Fatalf("hist = (%d, %d, %d), want (6, 110, 100)", h.Count(), h.Sum(), h.Max())
	}
	// 0 and 1 land in bucket 0; 2 and 3 in bucket 1; 4 in bucket 2;
	// 100 in bucket 6 (64 <= 100 < 128).
	for i, want := range map[int]uint64{0: 2, 1: 2, 2: 1, 6: 1} {
		if got := h.Bucket(i); got != want {
			t.Fatalf("bucket %d = %d, want %d", i, got, want)
		}
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
	wantNames := []string{"a", "att_count", "att_max", "att_sum", "q_hwm"}
	if got := r.Names(); !reflect.DeepEqual(got, wantNames) {
		t.Fatalf("names = %v, want %v", got, wantNames)
	}
}

func TestMergeSemantics(t *testing.T) {
	dst := map[string]uint64{"events": 10, "depth_hwm": 7, "att_max": 4}
	Merge(dst, map[string]uint64{"events": 5, "depth_hwm": 3, "att_max": 9, "new": 2})
	want := map[string]uint64{"events": 15, "depth_hwm": 7, "att_max": 9, "new": 2}
	if !reflect.DeepEqual(dst, want) {
		t.Fatalf("merge = %v, want %v", dst, want)
	}
	if !IsMax("q_hwm") || !IsMax("att_max") || IsMax("events") || IsMax("maxwell") {
		t.Fatal("IsMax suffix classification wrong")
	}
}

// Merging per-run snapshots must equal the aggregate a single shared
// registry would have seen, regardless of merge order.
func TestMergeOrderIndependent(t *testing.T) {
	snaps := []map[string]uint64{
		{"a": 1, "q_hwm": 5},
		{"a": 2, "q_hwm": 9},
		{"a": 4, "q_hwm": 3},
	}
	fwd := map[string]uint64{}
	for _, s := range snaps {
		Merge(fwd, s)
	}
	rev := map[string]uint64{}
	for i := len(snaps) - 1; i >= 0; i-- {
		Merge(rev, snaps[i])
	}
	if !reflect.DeepEqual(fwd, rev) {
		t.Fatalf("merge order changed result: %v vs %v", fwd, rev)
	}
	if fwd["a"] != 7 || fwd["q_hwm"] != 9 {
		t.Fatalf("merged = %v, want a=7 q_hwm=9", fwd)
	}
}
