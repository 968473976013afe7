package campaign

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/javelen/jtp/internal/stats"
)

// Shard selects a deterministic slice of a campaign for one process:
// shard Index of Of. The zero value (Of == 0) means unsharded and is
// treated as shard 0 of 1 everywhere.
//
// Selection is cell-granular: the matrix's cell index space [0, C) is
// partitioned into Of contiguous, balanced ranges, and shard i executes
// exactly the expanded runs whose cells fall in range i. Because the
// expansion is cell-major, each shard's run list is a contiguous slice
// of the global run-index space — and because a cell's runs never
// straddle shards, merging shard results concatenates disjoint cell
// aggregates, which is what makes merged reports byte-identical to an
// unsharded run (see MergeReports).
type Shard struct {
	Index int `json:"index"`
	Of    int `json:"of"`
}

// Enabled reports whether the shard actually restricts the campaign.
func (s Shard) Enabled() bool { return s.Of > 1 }

// norm maps the zero value to the canonical unsharded 0/1.
func (s Shard) norm() Shard {
	if s.Of == 0 {
		return Shard{0, 1}
	}
	return s
}

// Validate rejects impossible shard coordinates.
func (s Shard) Validate() error {
	s = s.norm()
	if s.Of < 1 {
		return fmt.Errorf("campaign: shard count %d < 1", s.Of)
	}
	if s.Index < 0 || s.Index >= s.Of {
		return fmt.Errorf("campaign: shard index %d outside [0,%d)", s.Index, s.Of)
	}
	return nil
}

// String renders the shard as "i/N".
func (s Shard) String() string {
	s = s.norm()
	return fmt.Sprintf("%d/%d", s.Index, s.Of)
}

// ParseShard parses "i/N" (e.g. "0/3") into a validated Shard.
func ParseShard(v string) (Shard, error) {
	i := strings.IndexByte(v, '/')
	if i < 0 {
		return Shard{}, fmt.Errorf("campaign: shard %q not of the form i/N", v)
	}
	idx, err1 := strconv.Atoi(v[:i])
	of, err2 := strconv.Atoi(v[i+1:])
	if err1 != nil || err2 != nil {
		return Shard{}, fmt.Errorf("campaign: shard %q not of the form i/N", v)
	}
	if of < 1 {
		return Shard{}, fmt.Errorf("campaign: shard count %d < 1", of)
	}
	sh := Shard{Index: idx, Of: of}
	if err := sh.Validate(); err != nil {
		return Shard{}, err
	}
	return sh, nil
}

// CellRange returns the half-open cell-index range [lo, hi) this shard
// owns out of numCells. Ranges are contiguous, disjoint, balanced to
// within one cell, and their union over all shards covers every cell.
// Shards beyond the cell count get empty ranges.
func (s Shard) CellRange(numCells int) (lo, hi int) {
	s = s.norm()
	return s.Index * numCells / s.Of, (s.Index + 1) * numCells / s.Of
}

// filterSpecs returns the sub-slice of the expanded run list this shard
// executes. Because expansion is cell-major and the cell range is
// contiguous, the result is a contiguous window of specs.
func (s Shard) filterSpecs(specs []RunSpec, numCells, runsPerCell int) []RunSpec {
	lo, hi := s.CellRange(numCells)
	return specs[lo*runsPerCell : hi*runsPerCell]
}

// ShardFileVersion is the current shard file schema version. Readers
// treat any other version as corrupt state: a checkpoint from another
// build cold-starts, and merge refuses the file. Version 3 fingerprints
// cover Matrix.Config, so a version 2 checkpoint of the same campaign
// carries another fingerprint; the version check makes it cold-start
// instead of being refused as a foreign campaign.
const ShardFileVersion = 3

// ErrCorruptShardFile marks a shard file that exists but cannot be
// trusted: an empty file, torn or truncated JSON, another schema
// version, or state that is structurally impossible (see check).
// Execute treats a corrupt checkpoint as a cold start with a warning,
// since re-running the shard from scratch is always correct and
// resuming from garbage never is. Merge fails on it. A fingerprint or
// shard mismatch is not corruption: that file is intact and belongs to
// another campaign, so resuming over it stays a hard error.
var ErrCorruptShardFile = errors.New("corrupt shard file")

// ShardFile is the one on-disk form of a campaign's state. A shard
// writes it with -shard-out when it completes, and `campaign.MergeReports`
// (CLI: `jtpsim merge`) folds a set of them back into a single Report.
// A checkpoint is the same file written before the shard finishes.
// It is self-contained: axis names, per-cell axis values (in canonical
// FormatValue form), and each cell's exact stats.Running state ride in
// the file, so merging needs no access to the original matrix.
//
// The fold-frontier invariant: folding is strictly in order over the
// shard's cell-major run list, so Runs is the frontier. Every run
// before it is folded and no run at or after it is. Resuming restores
// the cells and dispatches the run list from Runs. Re-executed runs
// reuse their deterministic seeds, so a resumed campaign's final report
// is byte-identical to an uninterrupted one.
type ShardFile struct {
	// Version is ShardFileVersion; readers reject anything else.
	Version int `json:"version"`
	// Campaign and Axes mirror the matrix; merge validates they agree
	// across shards.
	Campaign string   `json:"campaign"`
	Axes     []string `json:"axes"`
	// Fingerprint is the shard-independent campaign identity hash (see
	// Report.Fingerprint). Merge refuses shard sets whose fingerprints
	// disagree, and Execute refuses to resume a checkpoint of another
	// fingerprint.
	Fingerprint string `json:"fingerprint"`
	// Shard is this file's coordinates; merge requires one file per
	// index of a single Of.
	Shard Shard `json:"shard"`
	// NumCells and RunsPerCell describe the full (unsharded) matrix.
	NumCells    int `json:"numCells"`
	RunsPerCell int `json:"runsPerCell"`
	// Runs and Failures are this shard's folded totals. Runs is also
	// the fold frontier; it is below the shard's owned runs only in a
	// mid-run checkpoint.
	Runs     int `json:"runs"`
	Failures int `json:"failures,omitempty"`
	// Cells holds every cell this shard owns (including zero-run cells
	// of an unfinished shard), in ascending cell index order.
	Cells []ShardCell `json:"cells"`
}

// ShardCell is one cell's aggregate state in a shard file.
type ShardCell struct {
	// Index is the cell's position in the full matrix's cell order.
	Index int `json:"index"`
	// Values are the cell's axis values rendered with FormatValue, in
	// axis order. Reports rebuilt from shard files carry these strings;
	// since every emission path (Table/CSV/JSON) renders values through
	// FormatValue — the identity on strings — output is byte-identical
	// to the original report's.
	Values []string `json:"values"`
	// Runs/Failures/FirstError mirror CellResult.
	Runs       int    `json:"runs"`
	Failures   int    `json:"failures,omitempty"`
	FirstError string `json:"firstError,omitempty"`
	// Observables are the exact accumulator states, bit-exact through
	// JSON (see stats.RunningState).
	Observables map[string]stats.RunningState `json:"observables,omitempty"`
	// Telemetry is the cell's folded telemetry block, if any.
	Telemetry map[string]float64 `json:"telemetry,omitempty"`
}

// shardCellState exports one CellResult as a ShardCell.
func shardCellState(index int, c *CellResult) ShardCell {
	sc := ShardCell{
		Index:      index,
		Values:     make([]string, c.Cell.Len()),
		Runs:       c.Runs,
		Failures:   c.Failures,
		FirstError: c.FirstError,
	}
	for i := 0; i < c.Cell.Len(); i++ {
		sc.Values[i] = FormatValue(c.Cell.Value(i))
	}
	if len(c.obs) > 0 {
		sc.Observables = make(map[string]stats.RunningState, len(c.obs))
		for k, r := range c.obs {
			sc.Observables[k] = r.State()
		}
	}
	if len(c.Telemetry) > 0 {
		sc.Telemetry = make(map[string]float64, len(c.Telemetry))
		for k, v := range c.Telemetry {
			sc.Telemetry[k] = v
		}
	}
	return sc
}

// restoreInto loads the shard cell's state into a CellResult that was
// freshly allocated by newReport (empty aggregates, correct Cell).
func (sc *ShardCell) restoreInto(c *CellResult) {
	c.Runs = sc.Runs
	c.Failures = sc.Failures
	c.FirstError = sc.FirstError
	for _, k := range sortedKeys(sc.Observables) {
		r := stats.Restore(sc.Observables[k])
		c.obs[k] = &r
	}
	if len(sc.Telemetry) > 0 {
		c.Telemetry = make(map[string]float64, len(sc.Telemetry))
		for k, v := range sc.Telemetry {
			c.Telemetry[k] = v
		}
	}
}

// BuildShardFile exports a report's shard-owned cells as a ShardFile.
// The report must carry its shard coordinates (Execute stamps them).
func BuildShardFile(rep *Report) *ShardFile {
	sh := rep.Shard.norm()
	lo, hi := sh.CellRange(len(rep.Cells))
	f := &ShardFile{
		Version:     ShardFileVersion,
		Campaign:    rep.Name,
		Axes:        rep.Axes,
		Fingerprint: rep.Fingerprint,
		Shard:       sh,
		NumCells:    len(rep.Cells),
		RunsPerCell: rep.RunsPerCell,
		Runs:        rep.Runs,
		Failures:    rep.Failures,
		Cells:       make([]ShardCell, 0, hi-lo),
	}
	for ci := lo; ci < hi; ci++ {
		f.Cells = append(f.Cells, shardCellState(ci, rep.Cells[ci]))
	}
	return f
}

// WriteShardFile durably writes the report's shard file as indented
// JSON (see writeFileAtomic). Shard results and checkpoints are both
// encoded by encodeShardFile, so a completed shard's final checkpoint
// is byte-identical to its result file.
func WriteShardFile(path string, rep *Report) error {
	data, err := encodeShardFile(rep)
	if err != nil {
		return err
	}
	return writeShardFile(path, data)
}

// encodeShardFile is the content WriteShardFile writes for rep.
func encodeShardFile(rep *Report) ([]byte, error) {
	data, err := json.MarshalIndent(BuildShardFile(rep), "", "  ")
	if err != nil {
		return nil, fmt.Errorf("campaign: shard file: %w", err)
	}
	return append(data, '\n'), nil
}

// writeShardFile durably writes encoded shard file content to path.
func writeShardFile(path string, data []byte) error {
	if err := writeFileAtomic(path, data); err != nil {
		return fmt.Errorf("campaign: shard file: %w", err)
	}
	return nil
}

// ReadShardFile reads and checks one shard file, a result or a
// checkpoint. A missing file returns an error wrapping fs.ErrNotExist.
// A file that is empty, does not parse, has another version, or fails
// check returns an error wrapping ErrCorruptShardFile.
func ReadShardFile(path string) (*ShardFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	f, err := parseShardFile(data)
	if err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", path, err)
	}
	return f, nil
}

// parseShardFile decodes and checks shard file content.
func parseShardFile(data []byte) (*ShardFile, error) {
	var f ShardFile
	if len(data) == 0 {
		return nil, fmt.Errorf("empty file: %w", ErrCorruptShardFile)
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrCorruptShardFile)
	}
	if err := f.check(); err != nil {
		return nil, err
	}
	return &f, nil
}

// check verifies what a shard file must satisfy on its own, whoever
// wrote it: the current version, a valid shard of a non-empty matrix,
// exactly the cells that shard owns in ascending order, one value per
// axis in each, and the per-cell counts the fold frontier implies.
// After Runs in-order folds over the shard's cell-major run list, the
// k-th owned cell holds min(RunsPerCell, Runs − k·RunsPerCell) runs,
// none once that is negative, and Runs never exceeds the owned runs.
// The cells' failures sum to Failures. A file that passes restores into
// a report of its geometry without an index error. Every violation
// wraps ErrCorruptShardFile.
func (f *ShardFile) check() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf(format+": %w", append(args, ErrCorruptShardFile)...)
	}
	if f.Version != ShardFileVersion {
		return bad("version %d, this build reads %d", f.Version, ShardFileVersion)
	}
	sh := f.Shard.norm()
	if err := sh.Validate(); err != nil {
		return bad("%v", err)
	}
	if f.NumCells < 1 || f.RunsPerCell < 1 {
		return bad("matrix of %d cells × %d runs", f.NumCells, f.RunsPerCell)
	}
	lo, hi := sh.CellRange(f.NumCells)
	if lo < 0 || lo > hi || hi > f.NumCells || len(f.Cells) != hi-lo {
		return bad("shard %s owns cells [%d,%d), file has %d cells", sh, lo, hi, len(f.Cells))
	}
	if f.Runs < 0 || f.Runs > f.ownedRuns() {
		return bad("shard %s folded %d runs, owns %d", sh, f.Runs, f.ownedRuns())
	}
	failures := 0
	for k := range f.Cells {
		c := &f.Cells[k]
		want := min(f.RunsPerCell, max(0, f.Runs-k*f.RunsPerCell))
		switch {
		case c.Index != lo+k:
			return bad("expected owned cell %d, found cell %d", lo+k, c.Index)
		case len(c.Values) != len(f.Axes):
			return bad("cell %d has %d values for %d axes", c.Index, len(c.Values), len(f.Axes))
		case c.Runs != want:
			return bad("cell %d holds %d runs, frontier %d implies %d", c.Index, c.Runs, f.Runs, want)
		case c.Failures < 0 || c.Failures > c.Runs:
			return bad("cell %d has %d failures in %d runs", c.Index, c.Failures, c.Runs)
		}
		failures += c.Failures
	}
	if failures != f.Failures {
		return bad("cells hold %d failures, file says %d", failures, f.Failures)
	}
	return nil
}

// ownedRuns is the number of runs the file's shard owns.
func (f *ShardFile) ownedRuns() int {
	lo, hi := f.Shard.CellRange(f.NumCells)
	return (hi - lo) * f.RunsPerCell
}

// restore loads a checked shard file into a fresh report of the same
// campaign (from newReport) and returns the fold frontier to resume
// from. A geometry that disagrees with the report's is damage the
// fingerprint did not cover: it wraps ErrCorruptShardFile and leaves
// the report untouched.
func (f *ShardFile) restore(rep *Report) (int, error) {
	if f.NumCells != len(rep.Cells) || f.RunsPerCell != rep.RunsPerCell || len(f.Axes) != len(rep.Axes) {
		return 0, fmt.Errorf("geometry %d×%d over %d axes, campaign is %d×%d over %d: %w",
			f.NumCells, f.RunsPerCell, len(f.Axes), len(rep.Cells), rep.RunsPerCell, len(rep.Axes), ErrCorruptShardFile)
	}
	rep.Runs = f.Runs
	rep.Failures = f.Failures
	for i := range f.Cells {
		sc := &f.Cells[i]
		sc.restoreInto(rep.Cells[sc.Index])
	}
	return f.Runs, nil
}

// MergeGaps accounts for the shards absent from a partial merge: which
// indices are missing and exactly how many cells and runs they own
// (computable from the cell-range arithmetic alone, so the accounting
// is exact even though the missing files were never seen).
type MergeGaps struct {
	// Of is the shard count of the set being merged.
	Of int
	// Missing lists the absent shard indices, ascending.
	Missing []int
	// MissingCells and MissingRuns total the matrix cells and runs the
	// missing shards own.
	MissingCells int
	MissingRuns  int
}

// Complete reports whether the merge covered every shard.
func (g *MergeGaps) Complete() bool { return len(g.Missing) == 0 }

// MergeReports folds a complete set of shard files (one per index of
// the same Of, any argument order) back into a single Report.
//
// Determinism contract: with cell-granular sharding each matrix cell's
// whole aggregate lives in exactly one file, so the merged report's
// Table/CSV/JSON output is byte-identical to the unsharded run's — the
// merge only re-assembles disjoint state, every float round-trips
// bit-exactly through stats.RunningState, and cell axis values render
// through FormatValue on both paths.
//
// Validation is strict. Each file must pass check and hold all its
// shard's runs (a mid-run checkpoint does not). Across files, a
// duplicate shard index, a campaign/axis/shape mismatch, or disagreeing
// matrix fingerprints each return a descriptive error: these only arise
// from mixing files of different campaigns or from corruption, and
// folding them would produce silently wrong aggregates.
func MergeReports(files ...*ShardFile) (*Report, error) {
	rep, gaps, err := MergeAvailable(files...)
	if err != nil {
		return nil, err
	}
	if !gaps.Complete() {
		return nil, fmt.Errorf("campaign: merge: got %d files for %d shards, missing shard %d/%d",
			len(files), gaps.Of, gaps.Missing[0], gaps.Of)
	}
	return rep, nil
}

// MergeAvailable folds an incomplete shard set — every file present must
// still validate exactly as in MergeReports, but absent shards are
// tolerated and accounted in the returned MergeGaps instead of erroring.
// This is the graceful-degradation path: a coordinator whose shards
// exhausted their retry budgets still merges what completed.
//
// The partial report's Cells hold only the covered cells (in ascending
// cell-index order); a complete set yields the same report MergeReports
// would. Partial reports are terminal — they render (Table/CSV/JSON)
// but must not be re-exported as shard files.
func MergeAvailable(files ...*ShardFile) (*Report, *MergeGaps, error) {
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("campaign: merge: no shard files")
	}
	first := files[0]
	of := first.Shard.norm().Of
	seen := make([]bool, of)
	for _, f := range files {
		sh := f.Shard.norm()
		if err := f.check(); err != nil {
			return nil, nil, fmt.Errorf("campaign: merge: shard %s: %w", sh, err)
		}
		if f.Runs < f.ownedRuns() {
			return nil, nil, fmt.Errorf("campaign: merge: shard %s is incomplete: %d of its %d runs folded (a mid-run checkpoint?)",
				sh, f.Runs, f.ownedRuns())
		}
		if f.Campaign != first.Campaign {
			return nil, nil, fmt.Errorf("campaign: merge: campaign %q vs %q", f.Campaign, first.Campaign)
		}
		if strings.Join(f.Axes, "\x00") != strings.Join(first.Axes, "\x00") {
			return nil, nil, fmt.Errorf("campaign: merge: axis mismatch (%v vs %v)", f.Axes, first.Axes)
		}
		if f.NumCells != first.NumCells || f.RunsPerCell != first.RunsPerCell {
			return nil, nil, fmt.Errorf("campaign: merge: matrix shape mismatch (%d×%d vs %d×%d cells×runs)",
				f.NumCells, f.RunsPerCell, first.NumCells, first.RunsPerCell)
		}
		if f.Fingerprint != first.Fingerprint {
			return nil, nil, fmt.Errorf("campaign: merge: shard %s has matrix fingerprint %.12s…, shard %s has %.12s… (same-named campaigns with different seeds, axis values or settings?)",
				sh, f.Fingerprint, first.Shard.norm(), first.Fingerprint)
		}
		if sh.Of != of {
			return nil, nil, fmt.Errorf("campaign: merge: shard %s does not belong to a %d-way split", sh, of)
		}
		if seen[sh.Index] {
			return nil, nil, fmt.Errorf("campaign: merge: duplicate shard %s", sh)
		}
		seen[sh.Index] = true
	}

	// Each checked file holds exactly its own shard's cells and the
	// indices are distinct, so the files' cells are disjoint: collect
	// them by cell index, which also orders them.
	rep := &Report{
		Name:        first.Campaign,
		Axes:        first.Axes,
		RunsPerCell: first.RunsPerCell,
		Fingerprint: first.Fingerprint,
	}
	cells := make([]*CellResult, first.NumCells)
	for _, f := range files {
		rep.Runs += f.Runs
		rep.Failures += f.Failures
		for i := range f.Cells {
			sc := &f.Cells[i]
			c := &CellResult{
				Cell: cellFromStrings(first.Axes, sc.Values),
				obs:  map[string]*stats.Running{},
			}
			sc.restoreInto(c)
			cells[sc.Index] = c
		}
	}
	for _, c := range cells {
		if c != nil {
			rep.Cells = append(rep.Cells, c)
		}
	}

	gaps := &MergeGaps{Of: of}
	for i, ok := range seen {
		if !ok {
			lo, hi := (Shard{Index: i, Of: of}).CellRange(first.NumCells)
			gaps.Missing = append(gaps.Missing, i)
			gaps.MissingCells += hi - lo
			gaps.MissingRuns += (hi - lo) * first.RunsPerCell
		}
	}
	return rep, gaps, nil
}

// cellFromStrings rebuilds a Cell from canonical formatted values.
// FormatValue is the identity on strings, so a rebuilt cell renders
// byte-identically to the original in every emission path.
func cellFromStrings(names []string, values []string) Cell {
	vs := make([]any, len(values))
	for i, v := range values {
		vs[i] = v
	}
	return Cell{names: names, values: vs}
}

// Fingerprint returns the campaign's identity hash (see
// matrixFingerprint): the value Execute stamps into its Report and into
// every shard file and checkpoint it writes.
func (m *Matrix) Fingerprint() string { return matrixFingerprint(m, m.Expand()) }

// matrixFingerprint hashes the shard-independent campaign identity:
// name, axes (names and canonical values), runs per cell, the FULL
// expanded (index, cell, run, seed) list, which captures BaseSeed and
// any custom SeedFn, and the JSON encoding of Config. Every shard of
// the same campaign derives the same value. Execute stamps it into the
// Report and refuses to resume a checkpoint that carries another; shard
// files carry it, and merge refuses shard files whose fingerprints
// disagree.
func matrixFingerprint(m *Matrix, all []RunSpec) string {
	h := sha256.New()
	var buf [8]byte
	wInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wStr := func(s string) {
		wInt(int64(len(s)))
		io.WriteString(h, s)
	}
	wStr(m.Name)
	wInt(int64(len(m.Axes)))
	for _, ax := range m.Axes {
		wStr(ax.Name)
		wInt(int64(len(ax.Values)))
		for _, v := range ax.Values {
			wStr(FormatValue(v))
		}
	}
	wInt(int64(m.runsPerCell()))
	wInt(int64(len(all)))
	for i := range all {
		wInt(int64(all[i].Index))
		wInt(int64(all[i].CellIndex))
		wInt(int64(all[i].Run))
		wInt(all[i].Seed)
	}
	// Validate has checked that Config encodes.
	cfg, _ := json.Marshal(m.Config)
	wStr(string(cfg))
	return hex.EncodeToString(h.Sum(nil))
}

// writeFileAtomic replaces path with data so that a reader, or a
// restart after a crash or power loss, sees either the old content or
// all of the new: it writes a temp file in the same directory, fsyncs
// it, renames it over path, and fsyncs the directory so the rename
// itself is durable. On failure before the rename the temp file is
// removed. Shard files and checkpoints go through it.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
