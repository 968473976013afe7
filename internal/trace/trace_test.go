package trace

import (
	"encoding/json"
	"strings"
	"testing"
)

func ev(t float64, kind Kind, seq uint32) Event {
	return Event{T: t, Node: 1, Kind: kind, Flow: 1, Seq: seq}
}

func TestRingRetainsLastN(t *testing.T) {
	tr := New(3)
	for i := 0; i < 10; i++ {
		tr.Add(ev(float64(i), Transmit, uint32(i)))
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d", tr.Len())
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d", tr.Total())
	}
	got := tr.Events()
	for i, e := range got {
		if e.Seq != uint32(7+i) {
			t.Fatalf("chronological order broken: %v", got)
		}
	}
}

func TestPartialRing(t *testing.T) {
	tr := New(10)
	tr.Add(ev(1, Enqueue, 0))
	tr.Add(ev(2, Deliver, 0))
	got := tr.Events()
	if len(got) != 2 || got[0].Kind != Enqueue || got[1].Kind != Deliver {
		t.Fatalf("events = %v", got)
	}
}

func TestDumpAndSummary(t *testing.T) {
	tr := New(10)
	tr.Add(ev(1.5, Transmit, 7))
	tr.Add(ev(2.0, Drop, 7))
	tr.Add(Event{T: 2.5, Node: 2, Kind: Drop, Flow: 1, Seq: 8, Detail: "queue-full"})
	var b strings.Builder
	if err := tr.Dump(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "transmit") || !strings.Contains(out, "queue-full") {
		t.Fatalf("dump:\n%s", out)
	}
	sum := tr.Summary()
	if !strings.Contains(sum, "drop") || !strings.Contains(sum, "2") {
		t.Fatalf("summary:\n%s", sum)
	}
}

func TestKindNames(t *testing.T) {
	for k := Enqueue; k <= Feedback; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Fatalf("unnamed kind %d", k)
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Fatal("unknown kind formatting")
	}
}

func TestZeroCapacityDefaults(t *testing.T) {
	tr := New(0)
	for i := 0; i < 2000; i++ {
		tr.Add(ev(float64(i), Transmit, uint32(i)))
	}
	if tr.Len() != 1024 {
		t.Fatalf("default capacity = %d", tr.Len())
	}
}

func TestWriteJSON(t *testing.T) {
	tr := New(4)
	tr.Add(Event{T: 1.5, Node: 3, Kind: Transmit, Flow: 1, Seq: 7})
	tr.Add(Event{T: 2.25, Node: 4, Kind: Drop, Flow: 1, Seq: 7, Detail: "retries-exhausted"})
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	var got struct {
		T      float64 `json:"t"`
		Node   uint16  `json:"node"`
		Kind   string  `json:"kind"`
		Flow   uint16  `json:"flow"`
		Seq    uint32  `json:"seq"`
		Detail string  `json:"detail"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatalf("line 0 not valid JSON: %v", err)
	}
	if got.T != 1.5 || got.Node != 3 || got.Kind != "transmit" || got.Flow != 1 || got.Seq != 7 || got.Detail != "" {
		t.Fatalf("line 0 = %+v", got)
	}
	if err := json.Unmarshal([]byte(lines[1]), &got); err != nil {
		t.Fatalf("line 1 not valid JSON: %v", err)
	}
	if got.Kind != "drop" || got.Detail != "retries-exhausted" {
		t.Fatalf("line 1 = %+v", got)
	}
	// Wrapped ring still writes chronologically.
	for i := 0; i < 10; i++ {
		tr.Add(ev(float64(10+i), Deliver, uint32(i)))
	}
	b.Reset()
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := strings.TrimRight(b.String(), "\n")
	if n := len(strings.Split(out, "\n")); n != 4 {
		t.Fatalf("wrapped lines = %d, want 4", n)
	}
	last := -1.0
	for _, line := range strings.Split(out, "\n") {
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatal(err)
		}
		if got.T <= last {
			t.Fatalf("events out of order: %g after %g", got.T, last)
		}
		last = got.T
	}
}
