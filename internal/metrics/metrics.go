// Package metrics defines the run-level records the experiment harness
// fills in and the text-table formatter used to print paper-style rows.
package metrics

import (
	"fmt"
	"strings"

	"github.com/javelen/jtp/internal/stats"
)

// FlowRecord summarizes one flow of a run, protocol-independent.
type FlowRecord struct {
	// Proto is the transport ("jtp", "jnc", "tcp", "atp").
	Proto string
	// Flow is the flow id.
	Flow uint16
	// Src and Dst are the endpoints.
	Src, Dst uint16
	// StartAt is when the flow started, in virtual seconds.
	StartAt float64
	// CompletedAt is when a fixed transfer finished (0 when it did not).
	CompletedAt float64
	// Completed reports whether a fixed transfer finished.
	Completed bool
	// DataSent counts first transmissions at the source.
	DataSent uint64
	// SourceRetransmissions counts end-to-end retransmissions.
	SourceRetransmissions uint64
	// CacheRecovered counts in-network retransmissions reported or seen.
	CacheRecovered uint64
	// AcksSent counts feedback packets the receiver transmitted.
	AcksSent uint64
	// UniqueDelivered counts distinct packets delivered.
	UniqueDelivered uint64
	// DeliveredBytes is unique application payload delivered.
	DeliveredBytes uint64
	// Duplicates counts duplicate receptions.
	Duplicates uint64
	// Reception is the per-delivery time series (V=1 per unique packet).
	Reception *stats.Series
	// RateShifts are the instants, in seconds, at which the receiver's
	// path monitor declared a persistent rate change (JTP only; Fig 8).
	RateShifts []float64
}

// ActiveSeconds returns the flow's active time: start to completion, or
// start to end for streams. Degenerate windows — a zero-duration flow, a
// stream that never started (runEnd at or before StartAt), or a recorded
// completion before the start — clamp to 0 rather than to a tiny
// positive floor, so a rate computed over the window is 0, never a
// billions-scale artifact or ±Inf.
func (f *FlowRecord) ActiveSeconds(runEnd float64) float64 {
	end := runEnd
	if f.Completed && f.CompletedAt > 0 {
		end = f.CompletedAt
	}
	d := end - f.StartAt
	if d <= 0 {
		return 0
	}
	return d
}

// GoodputBps returns the flow's goodput in bits/s over its active time,
// 0 when the flow had no active window.
func (f *FlowRecord) GoodputBps(runEnd float64) float64 {
	as := f.ActiveSeconds(runEnd)
	if as <= 0 {
		return 0
	}
	return float64(f.DeliveredBytes*8) / as
}

// RunRecord aggregates one simulation run.
type RunRecord struct {
	// Name labels the scenario.
	Name string
	// Proto is the transport under test.
	Proto string
	// Nodes is the network size.
	Nodes int
	// Seconds is the measured duration in virtual seconds.
	Seconds float64
	// TotalEnergy is system-wide joules spent on transport packets.
	TotalEnergy float64
	// PerNodeEnergy is joules by node id.
	PerNodeEnergy []float64
	// EnergyBudgets is the per-node initial budgets in joules when the
	// scenario constrained them (nil otherwise; 0 = unlimited node).
	EnergyBudgets []float64
	// BudgetDeadNodes counts nodes whose energy budget was exhausted by
	// the end of the run.
	BudgetDeadNodes int
	// QueueDrops counts MAC queue overflows across the system.
	QueueDrops uint64
	// EnergyBudgetDrops counts packets dropped for exceeding budget.
	EnergyBudgetDrops uint64
	// RetryDrops counts link-layer retry exhaustion drops.
	RetryDrops uint64
	// CacheHits counts cache-served retransmissions across the system.
	CacheHits uint64
	// CacheInserts counts cache insertions across the system.
	CacheInserts uint64
	// AttemptBudgets is, per node id, the histogram of the link-layer
	// attempt budgets iJTP granted DATA packets on their first
	// transmission there (Fig 3(c)): AttemptBudgets[n][m] packets got m
	// attempts at node n. Nil when the run's protocol has no iJTP.
	AttemptBudgets [][]uint64
	// Telemetry is the run's counter map when the scenario asked for
	// telemetry (nil otherwise), collected after time stopped from each
	// layer's own counters. Values merge across runs per obs.Fold.
	Telemetry map[string]uint64
	// Flows are the per-flow records.
	Flows []*FlowRecord
}

// DeliveredBytes sums unique delivered payload across flows.
func (r *RunRecord) DeliveredBytes() uint64 {
	var sum uint64
	for _, f := range r.Flows {
		sum += f.DeliveredBytes
	}
	return sum
}

// DeliveredBits sums delivered payload bits.
func (r *RunRecord) DeliveredBits() float64 { return float64(r.DeliveredBytes() * 8) }

// EnergyPerBit returns system joules per delivered application bit — the
// paper's headline metric (§6.1 "Energy per delivered bit").
func (r *RunRecord) EnergyPerBit() float64 {
	bits := r.DeliveredBits()
	if bits == 0 {
		return 0
	}
	return r.TotalEnergy / bits
}

// MeanGoodputBps averages per-flow goodput — the paper's "average goodput
// experienced by flows in the network".
func (r *RunRecord) MeanGoodputBps() float64 {
	if len(r.Flows) == 0 {
		return 0
	}
	sum := 0.0
	for _, f := range r.Flows {
		sum += f.GoodputBps(r.Seconds)
	}
	return sum / float64(len(r.Flows))
}

// SourceRetransmissions sums end-to-end retransmissions across flows.
func (r *RunRecord) SourceRetransmissions() uint64 {
	var sum uint64
	for _, f := range r.Flows {
		sum += f.SourceRetransmissions
	}
	return sum
}

// Table is a minimal aligned-text table for paper-style output.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; values are formatted with %v unless already
// strings.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	cols := len(t.headers)
	width := make([]int, cols)
	for i, h := range t.headers {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i := 0; i < cols && i < len(r); i++ {
			if len(r[i]) > width[i] {
				width[i] = len(r[i])
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, "%-*s", width[i]+2, c)
		}
		b.WriteByte('\n')
	}
	line(t.headers)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header + rows; the
// title is omitted). Cells containing commas, quotes, or either newline
// character are quoted per RFC 4180 — a bare "\r" (possible in error
// strings carried into report cells) must not escape unquoted, or the
// emitted row count changes under CR-sensitive readers.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n\r") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
