package campaign

import (
	"encoding/json"
	"fmt"
	"strings"

	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/obs"
	"github.com/javelen/jtp/internal/stats"
)

// TelemetryPrefix marks Sample keys that carry run telemetry rather than
// experiment observables. Prefixed keys are folded into CellResult.
// Telemetry (summed, or maxed for obs "_hwm"/"_max" names) and never
// enter the observable aggregates — tables, CSV and the observables JSON
// are byte-identical whether or not a run attaches telemetry.
const TelemetryPrefix = "tel/"

// CellResult is the streaming aggregate of one matrix cell: a
// stats.Running (count/mean/CI95/min/max) per observable, fed in
// ascending run order. Memory is O(observables), independent of the
// number of runs folded in.
type CellResult struct {
	// Cell is the cell's axis assignment.
	Cell Cell
	// Runs counts results folded into this cell (including failures).
	Runs int
	// Failures counts runs that returned an error (or panicked).
	Failures int
	// FirstError describes the first failure, if any.
	FirstError string
	// Telemetry aggregates the cell's TelemetryPrefix-ed sample keys
	// (prefix stripped): counters sum across runs, "_hwm"/"_max" keys keep
	// the maximum. Nil when no run reported telemetry.
	Telemetry map[string]float64

	obs map[string]*stats.Running
	// block preallocates the cell's Running accumulators contiguously,
	// sized from the first sample (late, never-before-seen observables
	// fall back to individual allocations).
	block []stats.Running
}

// Observables returns the observable names seen in this cell, sorted.
func (c *CellResult) Observables() []string { return sortedKeys(c.obs) }

// Running returns a copy of the named observable's aggregate (the zero
// Running if the cell never reported it).
func (c *CellResult) Running(name string) stats.Running {
	if r, ok := c.obs[name]; ok {
		return *r
	}
	return stats.Running{}
}

// fold adds one run's sample to the aggregate. Each observable has its
// own independent accumulator, so iterating the sample map directly (in
// whatever order) is deterministic — no per-run key sort or scratch
// slice.
func (c *CellResult) fold(s Sample, err error) {
	c.Runs++
	if err != nil {
		c.Failures++
		if c.FirstError == "" {
			c.FirstError = err.Error()
		}
		return
	}
	for k, v := range s {
		if strings.HasPrefix(k, TelemetryPrefix) {
			c.foldTelemetry(k[len(TelemetryPrefix):], v)
			continue
		}
		r, ok := c.obs[k]
		if !ok {
			if c.block == nil {
				c.block = make([]stats.Running, 0, len(s))
			}
			if len(c.block) < cap(c.block) {
				c.block = c.block[:len(c.block)+1]
				r = &c.block[len(c.block)-1]
			} else {
				r = &stats.Running{}
			}
			c.obs[k] = r
		}
		r.Add(v)
	}
}

// foldTelemetry merges one telemetry value (key already stripped of
// TelemetryPrefix) by obs.Fold. Each key folds independently, so sample
// map iteration order cannot affect the result.
func (c *CellResult) foldTelemetry(k string, v float64) {
	if c.Telemetry == nil {
		c.Telemetry = map[string]float64{}
	}
	obs.Fold(c.Telemetry, k, v)
}

// Report is a campaign's aggregate outcome: one CellResult per matrix
// cell, in deterministic cell order. A sharded execution's report still
// spans every matrix cell — cells outside the shard simply hold zero
// runs — so emission shapes (table rows, CSV lines) match the unsharded
// run and shard files always know the full cell geometry.
type Report struct {
	// Name is the campaign name from the matrix.
	Name string
	// Axes are the axis names, in matrix order.
	Axes []string
	// Cells are the per-cell aggregates, in Matrix.Cells() order.
	Cells []*CellResult
	// Runs counts all folded runs; Failures those that errored.
	Runs     int
	Failures int
	// Interrupted counts run results discarded because the campaign was
	// cancelled (the run returned the campaign context's error, or its
	// completed result was stuck behind one in fold order). Interrupted
	// runs are not failures — they rerun on resume — and never
	// contribute to Err().
	Interrupted int
	// Shard is the execution's shard coordinates (0/1 when unsharded)
	// and RunsPerCell the matrix's clamped per-cell repetition count;
	// both feed the shard result file.
	Shard       Shard
	RunsPerCell int
	// Fingerprint is the shard-independent campaign identity hash (see
	// matrixFingerprint): the same matrix, seeds, and run count derive
	// the same value in every shard. Execute stamps it; shard files
	// carry it so MergeReports can refuse to fold shards of different
	// campaigns that merely share a name and shape. Not part of any
	// emission format (tables, CSV and JSON are unchanged by it).
	Fingerprint string
}

// newReport allocates the report skeleton for a matrix.
func newReport(m *Matrix) *Report {
	cells := m.Cells()
	rep := &Report{
		Name:        m.Name,
		Axes:        m.AxisNames(),
		Cells:       make([]*CellResult, len(cells)),
		Shard:       Shard{0, 1},
		RunsPerCell: m.runsPerCell(),
	}
	for i, c := range cells {
		rep.Cells[i] = &CellResult{Cell: c, obs: map[string]*stats.Running{}}
	}
	return rep
}

// fold routes one run result to its cell.
func (r *Report) fold(spec RunSpec, s Sample, err error) {
	r.Runs++
	if err != nil {
		r.Failures++
	}
	r.Cells[spec.CellIndex].fold(s, err)
}

// Err returns nil when every folded run succeeded, else an error
// describing the first failure and the failure count. Interrupted
// (cancelled) runs are not failures and never make Err non-nil: a
// user's Ctrl-C must not masquerade as simulation failure.
func (r *Report) Err() error {
	if r.Failures == 0 {
		return nil
	}
	for _, c := range r.Cells {
		if c.FirstError != "" {
			return fmt.Errorf("campaign %s: %d/%d runs failed; first: %s",
				r.Name, r.Failures, r.Runs, c.FirstError)
		}
	}
	return fmt.Errorf("campaign %s: %d/%d runs failed", r.Name, r.Failures, r.Runs)
}

// ObservableNames returns every observable reported by any cell, sorted.
func (r *Report) ObservableNames() []string {
	all := map[string]bool{}
	for _, c := range r.Cells {
		for _, k := range c.Observables() {
			all[k] = true
		}
	}
	return sortedKeys(all)
}

// Table renders the report as a metrics.Table: one row per cell, axis
// columns first, then mean and ±CI95 columns for each requested
// observable (all observables when none are named).
func (r *Report) Table(title string, observables ...string) *metrics.Table {
	if len(observables) == 0 {
		observables = r.ObservableNames()
	}
	headers := append([]string{}, r.Axes...)
	for _, o := range observables {
		headers = append(headers, o, "±CI")
	}
	tbl := metrics.NewTable(title, headers...)
	for _, c := range r.Cells {
		row := make([]any, 0, len(headers))
		for i := 0; i < c.Cell.Len(); i++ {
			row = append(row, FormatValue(c.Cell.Value(i)))
		}
		for _, o := range observables {
			agg := c.Running(o)
			row = append(row, agg.Mean(), agg.CI95())
		}
		tbl.AddRow(row...)
	}
	return tbl
}

// CSV renders the report's table as CSV.
func (r *Report) CSV(observables ...string) string {
	return r.Table("", observables...).CSV()
}

// TelemetryNames returns every telemetry key reported by any cell,
// sorted. Empty when the campaign ran without telemetry.
func (r *Report) TelemetryNames() []string {
	all := map[string]bool{}
	for _, c := range r.Cells {
		for k := range c.Telemetry {
			all[k] = true
		}
	}
	if len(all) == 0 {
		return nil
	}
	return sortedKeys(all)
}

// TelemetryTable renders the optional telemetry columns: one row per
// cell, axis columns first, then one column per telemetry key (all keys
// when none are named). Cells that reported no telemetry render zeros.
func (r *Report) TelemetryTable(title string, names ...string) *metrics.Table {
	if len(names) == 0 {
		names = r.TelemetryNames()
	}
	headers := append([]string{}, r.Axes...)
	headers = append(headers, names...)
	tbl := metrics.NewTable(title, headers...)
	for _, c := range r.Cells {
		row := make([]any, 0, len(headers))
		for i := 0; i < c.Cell.Len(); i++ {
			row = append(row, FormatValue(c.Cell.Value(i)))
		}
		for _, k := range names {
			row = append(row, FormatValue(c.Telemetry[k]))
		}
		tbl.AddRow(row...)
	}
	return tbl
}

// TelemetryCSV renders the telemetry table as CSV.
func (r *Report) TelemetryCSV(names ...string) string {
	return r.TelemetryTable("", names...).CSV()
}

// jsonObservable is the JSON shape of one aggregated observable.
type jsonObservable struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// jsonCell is the JSON shape of one cell aggregate. Map keys are emitted
// sorted by encoding/json, keeping the output byte-stable.
type jsonCell struct {
	Cell        map[string]string         `json:"cell"`
	Runs        int                       `json:"runs"`
	Failures    int                       `json:"failures,omitempty"`
	FirstError  string                    `json:"firstError,omitempty"`
	Observables map[string]jsonObservable `json:"observables"`
	Telemetry   map[string]float64        `json:"telemetry,omitempty"`
}

// jsonReport is the JSON shape of a report. Interrupted is omitted
// when zero, so complete runs emit byte-identical documents whether or
// not they were ever sharded or resumed.
type jsonReport struct {
	Name        string     `json:"name"`
	Axes        []string   `json:"axes"`
	Runs        int        `json:"runs"`
	Failures    int        `json:"failures,omitempty"`
	Interrupted int        `json:"interrupted,omitempty"`
	Cells       []jsonCell `json:"cells"`
}

// JSON renders the report as deterministic, indented JSON.
func (r *Report) JSON() ([]byte, error) {
	out := jsonReport{Name: r.Name, Axes: r.Axes, Runs: r.Runs, Failures: r.Failures, Interrupted: r.Interrupted}
	for _, c := range r.Cells {
		jc := jsonCell{
			Cell:        map[string]string{},
			Runs:        c.Runs,
			Failures:    c.Failures,
			FirstError:  c.FirstError,
			Observables: map[string]jsonObservable{},
		}
		if len(c.Telemetry) > 0 {
			jc.Telemetry = c.Telemetry
		}
		for i := 0; i < c.Cell.Len(); i++ {
			jc.Cell[c.Cell.Axis(i)] = FormatValue(c.Cell.Value(i))
		}
		for _, k := range c.Observables() {
			agg := c.Running(k)
			jc.Observables[k] = jsonObservable{
				N:    agg.N(),
				Mean: agg.Mean(),
				CI95: agg.CI95(),
				Min:  agg.Min(),
				Max:  agg.Max(),
			}
		}
		out.Cells = append(out.Cells, jc)
	}
	return json.MarshalIndent(out, "", "  ")
}
