// Package campaign is the scenario-matrix campaign engine: it expands a
// declarative cross product of axes (protocol × topology × channel ×
// cache policy × mobility × loss tolerance × …) into a deterministic run
// list, executes the runs on a sharded worker pool, and streams per-cell
// aggregates (means and 95% confidence intervals via internal/stats).
//
// The engine is the substrate under the paper's multi-run evaluations
// (Figs 9–11: 10–20 runs × thousands of virtual seconds per cell) and
// under arbitrary user campaigns (`jtpsim batch -matrix file.json`).
//
// Determinism is a hard guarantee: every run derives its seed from the
// matrix alone, and results are folded into their cell aggregates in
// ascending run order no matter which worker finishes first, so the
// aggregate report is byte-identical for any worker count.
package campaign

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Axis is one dimension of a scenario matrix. Values may be strings,
// bools, ints, or float64s (the types JSON numbers and flags decode to).
type Axis struct {
	Name   string
	Values []any
}

// Strings builds an axis value list from strings.
func Strings(vs ...string) []any {
	out := make([]any, len(vs))
	for i, v := range vs {
		out[i] = v
	}
	return out
}

// Ints builds an axis value list from ints.
func Ints(vs ...int) []any {
	out := make([]any, len(vs))
	for i, v := range vs {
		out[i] = v
	}
	return out
}

// Floats builds an axis value list from float64s.
func Floats(vs ...float64) []any {
	out := make([]any, len(vs))
	for i, v := range vs {
		out[i] = v
	}
	return out
}

// FormatValue renders an axis value canonically (used for cell keys,
// table cells, and CSV/JSON emission).
func FormatValue(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case bool:
		return strconv.FormatBool(x)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// Cell is one point of the expanded matrix: a fixed value per axis, in
// axis order. Cells are immutable after expansion.
type Cell struct {
	names  []string
	values []any
}

// Len returns the number of axes.
func (c Cell) Len() int { return len(c.names) }

// Axis returns the i-th axis name.
func (c Cell) Axis(i int) string { return c.names[i] }

// Value returns the i-th axis value.
func (c Cell) Value(i int) any { return c.values[i] }

// Get returns the value of the named axis.
func (c Cell) Get(name string) (any, bool) {
	for i, n := range c.names {
		if n == name {
			return c.values[i], true
		}
	}
	return nil, false
}

// String returns the named axis value rendered canonically ("" if the
// axis does not exist).
func (c Cell) String(name string) string {
	v, ok := c.Get(name)
	if !ok {
		return ""
	}
	return FormatValue(v)
}

// Float returns the named axis value as a float64 (0 if absent or not
// numeric). A numeric string parses: a cell rebuilt from shard files
// carries its values as their canonical strings, which round-trip.
func (c Cell) Float(name string) float64 {
	v, _ := c.Get(name)
	switch x := v.(type) {
	case float64:
		return x
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case string:
		if f, err := strconv.ParseFloat(x, 64); err == nil {
			return f
		}
	}
	return 0
}

// Int returns the named axis value as an int (0 if absent or not numeric).
func (c Cell) Int(name string) int { return int(c.Float(name)) }

// Key renders the cell as "axis=value/axis=value", a stable identifier
// used in logs, telemetry records, and shard/checkpoint files. The
// delimiters "/" and "=" (and the escape character "%") are
// percent-escaped inside names and values, so two distinct cells can
// never render the same key: axes {"a": "b/c"} and {"a": "b", "c": ""}
// stay distinguishable even though both would naively print "a=b/c".
func (c Cell) Key() string {
	var b strings.Builder
	for i, n := range c.names {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(escapeKeyPart(n))
		b.WriteByte('=')
		b.WriteString(escapeKeyPart(FormatValue(c.values[i])))
	}
	return b.String()
}

// escapeKeyPart percent-escapes the cell-key delimiters. Values without
// "/", "=" or "%" (every axis value the repo's matrices use today) pass
// through unchanged, so existing keys, logs and goldens are unaffected.
func escapeKeyPart(s string) string {
	if !strings.ContainsAny(s, "/=%") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 4)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '%':
			b.WriteString("%25")
		case '/':
			b.WriteString("%2F")
		case '=':
			b.WriteString("%3D")
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// RunSpec identifies one simulation run of a campaign.
type RunSpec struct {
	// Index is the dense global index in deterministic expansion order
	// (cell-major, run-minor). Aggregation folds results in this order.
	Index int
	// CellIndex is the cell's position in Matrix.Cells() order.
	CellIndex int
	// Run is the run number within the cell, 0-based.
	Run int
	// Cell is the cell's axis assignment.
	Cell Cell
	// Seed is the run's derived RNG seed.
	Seed int64
}

// SeedFunc derives a run's seed from its cell and run number. The
// default is a splitmix64-style hash of (base, cellIndex, run); figure
// reproductions override it to preserve their historical seed schedules.
type SeedFunc func(cell Cell, cellIndex, run int) int64

// Matrix declares a campaign: the cross product of Axes, each cell
// repeated Runs times with independent derived seeds.
type Matrix struct {
	// Name labels the campaign in reports.
	Name string
	// Axes are crossed in order; the first axis varies slowest.
	Axes []Axis
	// Runs is the number of independent seeds per cell. Zero is legal
	// and clamps to 1 (a zero-value Matrix still runs each cell once);
	// negative values are rejected by Validate. NumRuns and Expand both
	// apply the same clamp, so "runs": 0 in a JSON matrix means exactly
	// one run per cell, never an empty campaign.
	Runs int
	// BaseSeed feeds seed derivation; the same matrix and base seed
	// always produce the same run list.
	BaseSeed int64
	// SeedFn overrides the default seed derivation when non-nil.
	SeedFn SeedFunc
	// Config is the campaign's non-axis run configuration: run length,
	// flow counts, transfer sizes, everything a run reads besides its
	// cell and seed. The fingerprint hashes its JSON encoding, so two
	// campaigns that differ only here (a -scale, a -seconds) never
	// resume or merge into each other. Validate rejects a Config that
	// does not encode.
	Config any
}

// AddAxis appends an axis and returns the matrix for chaining.
func (m *Matrix) AddAxis(name string, values ...any) *Matrix {
	m.Axes = append(m.Axes, Axis{Name: name, Values: values})
	return m
}

// Validate reports structural problems: empty axes, duplicate axis
// names, or a negative run count — the malformed matrices that would
// otherwise expand to a silently empty (or wrong-sized) campaign.
// Runs == 0 is explicitly accepted: it clamps to one run per cell
// (see Matrix.Runs), matching what NumRuns and Expand execute.
func (m *Matrix) Validate() error {
	if m.Runs < 0 {
		return fmt.Errorf("campaign: negative runs %d", m.Runs)
	}
	seen := map[string]bool{}
	for _, ax := range m.Axes {
		if ax.Name == "" {
			return fmt.Errorf("campaign: axis with empty name")
		}
		if seen[ax.Name] {
			return fmt.Errorf("campaign: duplicate axis %q", ax.Name)
		}
		seen[ax.Name] = true
		if len(ax.Values) == 0 {
			return fmt.Errorf("campaign: axis %q has no values", ax.Name)
		}
	}
	if _, err := json.Marshal(m.Config); err != nil {
		return fmt.Errorf("campaign: config: %w", err)
	}
	return nil
}

// NumCells returns the product of axis sizes (1 for a zero-axis matrix).
func (m *Matrix) NumCells() int {
	n := 1
	for _, ax := range m.Axes {
		n *= len(ax.Values)
	}
	return n
}

// runsPerCell returns Runs clamped to at least 1 (the authoritative
// per-cell repetition count used by NumRuns, Expand, and Execute).
func (m *Matrix) runsPerCell() int {
	if m.Runs < 1 {
		return 1
	}
	return m.Runs
}

// NumRuns returns the total number of runs in the expanded matrix:
// NumCells() × max(Runs, 1). A matrix with Runs == 0 therefore counts
// (and executes) one run per cell, not zero.
func (m *Matrix) NumRuns() int { return m.NumCells() * m.runsPerCell() }

// AxisNames returns the axis names in order.
func (m *Matrix) AxisNames() []string {
	out := make([]string, len(m.Axes))
	for i, ax := range m.Axes {
		out[i] = ax.Name
	}
	return out
}

// Cells expands the axes into the deterministic cell list: the first
// axis varies slowest, the last fastest (matching nested for-loops with
// the first axis outermost).
func (m *Matrix) Cells() []Cell {
	names := m.AxisNames()
	total := m.NumCells()
	cells := make([]Cell, 0, total)
	idx := make([]int, len(m.Axes))
	for {
		values := make([]any, len(m.Axes))
		for i, ax := range m.Axes {
			values[i] = ax.Values[idx[i]]
		}
		cells = append(cells, Cell{names: names, values: values})
		// Odometer increment, last axis fastest.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(m.Axes[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return cells
		}
	}
}

// Expand produces the full deterministic run list: cells in Cells()
// order, each with runsPerCell() consecutive runs.
func (m *Matrix) Expand() []RunSpec {
	cells := m.Cells()
	runs := m.runsPerCell()
	seedFn := m.SeedFn
	if seedFn == nil {
		seedFn = m.defaultSeed
	}
	specs := make([]RunSpec, 0, len(cells)*runs)
	for ci, cell := range cells {
		for r := 0; r < runs; r++ {
			specs = append(specs, RunSpec{
				Index:     len(specs),
				CellIndex: ci,
				Run:       r,
				Cell:      cell,
				Seed:      seedFn(cell, ci, r),
			})
		}
	}
	return specs
}

// defaultSeed mixes the base seed, cell index, and run number through a
// splitmix64 finalizer so neighboring cells get well-separated streams.
func (m *Matrix) defaultSeed(_ Cell, cellIndex, run int) int64 {
	z := uint64(m.BaseSeed) ^ 0x9e3779b97f4a7c15
	z += uint64(cellIndex)*0xbf58476d1ce4e5b9 + uint64(run)*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// sortedKeys returns the map's keys in sorted order (for deterministic
// emission).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
