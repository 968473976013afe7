package obs

import (
	"reflect"
	"testing"
)

// TestMergeSemantics pins which telemetry keys merge across runs by
// maximum (high-water marks and maxima); all others sum.
func TestMergeSemantics(t *testing.T) {
	if !IsMax("q_hwm") || !IsMax("att_max") || IsMax("events") || IsMax("maxwell") {
		t.Fatal("IsMax suffix classification wrong")
	}
}

// TestFold pins the fold: sums add, maxima keep the larger value, and a
// first value is stored as is — a zero maximum included, so the key set
// of an aggregate is the union of the folded maps' key sets.
func TestFold(t *testing.T) {
	agg := map[string]float64{}
	for _, m := range []map[string]float64{
		{"events": 4, "q_hwm": 0, "att_max": 3},
		{"events": 6, "q_hwm": 0, "att_max": 2, "att_count": 1},
		{"events": 0, "att_max": 5, "att_count": 2},
	} {
		for k, v := range m {
			Fold(agg, k, v)
		}
	}
	want := map[string]float64{"events": 10, "q_hwm": 0, "att_max": 5, "att_count": 3}
	if !reflect.DeepEqual(agg, want) {
		t.Fatalf("fold = %v, want %v", agg, want)
	}
}
