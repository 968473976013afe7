package metrics

import (
	"math"
	"strings"
	"testing"

	"github.com/javelen/jtp/internal/stats"
)

func TestFlowRecordGoodput(t *testing.T) {
	f := &FlowRecord{StartAt: 100, DeliveredBytes: 1000}
	// Stream: active until run end.
	if g := f.GoodputBps(200); g != 80 { // 8000 bits over 100 s
		t.Fatalf("stream goodput = %v", g)
	}
	// Completed transfer: active until completion.
	f.Completed = true
	f.CompletedAt = 150
	if g := f.GoodputBps(200); g != 160 { // 8000 bits over 50 s
		t.Fatalf("completed goodput = %v", g)
	}
	// Degenerate window must not divide by zero: it clamps to 0 goodput.
	f.CompletedAt = 100
	if g := f.GoodputBps(200); g != 0 {
		t.Fatalf("degenerate window: %v", g)
	}
}

func TestRunRecordAggregates(t *testing.T) {
	r := &RunRecord{
		Seconds:     100,
		TotalEnergy: 2.0,
		Flows: []*FlowRecord{
			{DeliveredBytes: 500, StartAt: 0},
			{DeliveredBytes: 1500, StartAt: 0},
		},
	}
	if r.DeliveredBytes() != 2000 {
		t.Fatalf("delivered = %d", r.DeliveredBytes())
	}
	if r.DeliveredBits() != 16000 {
		t.Fatalf("bits = %v", r.DeliveredBits())
	}
	if e := r.EnergyPerBit(); e != 2.0/16000 {
		t.Fatalf("e/bit = %v", e)
	}
	// Mean goodput: (40 + 120)/2.
	if g := r.MeanGoodputBps(); g != 80 {
		t.Fatalf("mean goodput = %v", g)
	}
	empty := &RunRecord{}
	if empty.EnergyPerBit() != 0 || empty.MeanGoodputBps() != 0 {
		t.Fatal("empty record aggregates should be zero")
	}
}

func TestSourceRetransmissionsSum(t *testing.T) {
	r := &RunRecord{Flows: []*FlowRecord{
		{SourceRetransmissions: 3},
		{SourceRetransmissions: 4},
	}}
	if r.SourceRetransmissions() != 7 {
		t.Fatal("sum wrong")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("beta-very-long-name", 42)
	out := tb.String()
	if !strings.Contains(out, "Demo") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta-very-long-name") {
		t.Fatal("missing rows")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	// Columns align: every data line at least as wide as the longest cell.
	if len(tb.rows) != 2 {
		t.Fatalf("rows = %d", len(tb.rows))
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("Title Ignored", "a", "b")
	tb.AddRow("plain", 1.5)
	tb.AddRow("with,comma", `quote"inside`)
	csv := tb.CSV()
	want := "a,b\nplain,1.5\n\"with,comma\",\"quote\"\"inside\"\n"
	if csv != want {
		t.Fatalf("CSV:\n%q\nwant:\n%q", csv, want)
	}
}

// TestTableCSVQuoting is the RFC-4180 quoting table: every delimiter
// class — including a bare "\r", which previously escaped unquoted and
// changed the emitted row count under CR-sensitive readers — must force
// the cell into quotes; clean cells must stay bare.
func TestTableCSVQuoting(t *testing.T) {
	cases := []struct {
		name string
		cell string
		want string
	}{
		{"plain", "abc", "abc"},
		{"comma", "a,b", `"a,b"`},
		{"quote", `a"b`, `"a""b"`},
		{"newline", "a\nb", "\"a\nb\""},
		{"bare CR", "a\rb", "\"a\rb\""},
		{"CRLF", "a\r\nb", "\"a\r\nb\""},
		{"leading CR", "\rrun failed", "\"\rrun failed\""},
		{"trailing CR", "boom\r", "\"boom\r\""},
		{"empty", "", ""},
		{"spaces stay bare", "a b", "a b"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := NewTable("", "c")
			tb.AddRow(tc.cell)
			got := tb.CSV()
			want := "c\n" + tc.want + "\n"
			if got != want {
				t.Fatalf("CSV = %q, want %q", got, want)
			}
		})
	}
}

func TestTableFormatsFloats(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(3.14159265)
	if !strings.Contains(tb.String(), "3.142") {
		t.Fatalf("float formatting: %s", tb.String())
	}
}

func TestActiveSeconds(t *testing.T) {
	f := &FlowRecord{StartAt: 10}
	if f.ActiveSeconds(110) != 100 {
		t.Fatal("stream active window")
	}
	f.Completed = true
	f.CompletedAt = 60
	if f.ActiveSeconds(110) != 50 {
		t.Fatal("completed active window")
	}
	if got := (&FlowRecord{StartAt: 100}).ActiveSeconds(50); got != 0 {
		t.Fatalf("negative window must clamp to 0, got %g", got)
	}
	var s stats.Series
	s.Add(1, 1)
	f.Reception = &s
	if f.Reception.Len() != 1 {
		t.Fatal("series attach")
	}
}

// Degenerate flow windows must clamp to 0 active seconds and 0 goodput
// — never the old 1e-9 floor that turned any delivered byte into a
// billions-scale rate, and never ±Inf.
func TestActiveSecondsDegenerate(t *testing.T) {
	cases := []struct {
		name string
		flow FlowRecord
		end  float64
	}{
		{"zero-duration completed flow", FlowRecord{StartAt: 40, Completed: true, CompletedAt: 40, DeliveredBytes: 1000}, 100},
		{"stream never started", FlowRecord{StartAt: 200, DeliveredBytes: 500}, 200},
		{"stream start past run end", FlowRecord{StartAt: 300, DeliveredBytes: 500}, 120},
		{"completion before start", FlowRecord{StartAt: 80, Completed: true, CompletedAt: 20, DeliveredBytes: 4096}, 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.flow.ActiveSeconds(tc.end); got != 0 {
				t.Fatalf("ActiveSeconds = %g, want 0", got)
			}
			g := tc.flow.GoodputBps(tc.end)
			if g != 0 {
				t.Fatalf("GoodputBps = %g, want 0", g)
			}
			if math.IsInf(g, 0) || math.IsNaN(g) {
				t.Fatalf("GoodputBps must be finite, got %g", g)
			}
		})
	}
	// A healthy window is unaffected by the clamp.
	f := FlowRecord{StartAt: 10, DeliveredBytes: 1000}
	if got := f.GoodputBps(110); got != 80 {
		t.Fatalf("healthy goodput = %g, want 80", got)
	}
	// MeanGoodputBps over a mix of healthy and degenerate flows stays
	// finite: the degenerate flow contributes 0, not Inf.
	r := RunRecord{Seconds: 100, Flows: []*FlowRecord{
		{StartAt: 0, DeliveredBytes: 1250},
		{StartAt: 100, DeliveredBytes: 99},
	}}
	if got := r.MeanGoodputBps(); got != 50 || math.IsInf(got, 0) {
		t.Fatalf("mean goodput = %g, want 50", got)
	}
}
