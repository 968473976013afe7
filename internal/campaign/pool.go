package campaign

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Sample is one run's named observables (e.g. "energy_per_bit",
// "goodput_bps"). A run may omit observables; aggregation only folds the
// keys that are present.
type Sample map[string]float64

// RunFunc executes one simulation run and returns its observables. It is
// called from multiple worker goroutines concurrently and must not share
// mutable state across calls; everything a run needs is in its RunSpec
// (in particular its derived Seed). Long runs should poll ctx and bail
// early when cancelled, but the pool also tolerates RunFuncs that ignore
// ctx entirely (cancellation then takes effect between runs).
type RunFunc func(ctx context.Context, spec RunSpec) (Sample, error)

// Options tunes campaign execution.
type Options struct {
	// Workers is the worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// OnProgress, when non-nil, observes every folded run result and the
	// campaign's progress: one call per run, in ascending fold order under
	// the aggregation lock, so callers get a deterministic stream without
	// locking. Results discarded by cancellation (see
	// Report.Interrupted) are not observed — they never fold, and rerun
	// on resume. Wall-clock timing is only measured when OnProgress is
	// set; it never influences the simulation or the report.
	OnProgress func(p Progress)
	// Shard restricts execution to one deterministic slice of the
	// matrix (see Shard). The zero value runs the whole matrix.
	Shard Shard
	// Checkpoint, when non-empty, enables durable checkpoint/resume at
	// this path. A checkpoint is the shard's ShardFile written before
	// the shard finishes; its Runs is the fold frontier. Execute
	// auto-resumes from an existing checkpoint (refusing one of another
	// fingerprint or shard), writes it durably at the first fold after
	// CheckpointInterval of wall clock (or after CheckpointEvery folds,
	// when set), and writes a final one before returning — including on
	// cancellation, so a killed shard loses at most the runs since its
	// last checkpoint. A shard that finishes within one interval writes
	// only the final checkpoint, the same bytes as its shard file.
	Checkpoint string
	// CheckpointEvery, when > 0, also bounds the folds between periodic
	// checkpoints; <= 0 means no fold-count bound.
	CheckpointEvery int
	// CheckpointInterval is the maximum wall-clock time between
	// periodic checkpoints; <= 0 means 30s.
	CheckpointInterval time.Duration
	// ShardOut, when non-empty, atomically writes the shard's versioned
	// result file (see ShardFile) there when the shard completes all its
	// runs. Interrupted executions skip it — the checkpoint carries the
	// partial state for resume instead.
	ShardOut string
	// Warn, when non-nil, receives non-fatal diagnostics (today: a
	// corrupt checkpoint being discarded for a cold start). Nil drops
	// them; the condition still handles itself safely either way.
	Warn func(format string, args ...any)
}

// warnf routes a diagnostic to Warn when set.
func (o Options) warnf(format string, args ...any) {
	if o.Warn != nil {
		o.Warn(format, args...)
	}
}

// Progress is one tick of the campaign progress stream: the run that
// just folded plus cumulative wall-clock accounting. ETA and rate are
// wall-clock derived and therefore nondeterministic; everything else
// follows the deterministic fold order.
type Progress struct {
	// Campaign is the matrix name.
	Campaign string
	// Spec identifies the run that just folded; Sample and Err are its
	// result, exactly as the run returned them.
	Spec   RunSpec
	Sample Sample
	Err    error
	// RunWallSeconds is this run's execution wall time (queue wait
	// excluded); CellWallSeconds accumulates it over the run's cell.
	RunWallSeconds  float64
	CellWallSeconds float64
	// ElapsedSeconds is wall time since Execute started.
	ElapsedSeconds float64
	// RunsPerSec is this session's fold rate (runs restored from a
	// checkpoint are excluded); ETASeconds extrapolates it over the
	// remaining runs (0 until a rate exists).
	RunsPerSec float64
	ETASeconds float64
	// Done counts folded runs including any restored from a checkpoint;
	// Total is the campaign (or shard) size; Failures the folded errors
	// so far; Interrupted the results discarded by cancellation so far
	// (normally 0 in ticks — cancellation also stops the tick stream).
	Done, Total, Failures, Interrupted int
}

// workers resolves the pool size.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// checkpointInterval resolves the periodic checkpoint wall-clock bound.
func (o Options) checkpointInterval() time.Duration {
	if o.CheckpointInterval > 0 {
		return o.CheckpointInterval
	}
	return 30 * time.Second
}

// workItem pairs a run spec with its dense position in the shard's
// dispatch order. Sharded spec lists have non-contiguous global
// indices, so folding orders by seq, not RunSpec.Index.
type workItem struct {
	seq  int
	spec RunSpec
}

// Execute expands the matrix (restricted to opt.Shard when set) and runs
// every selected RunSpec on a worker pool, streaming results into
// per-cell aggregates. It returns when all runs have been folded, or
// earlier with ctx.Err() when ctx is cancelled (the returned report then
// holds the runs folded so far).
//
// Determinism: results are folded strictly in dispatch order — a result
// that arrives early waits in a bounded reorder buffer — so the report
// is byte-identical for any Workers setting, including Workers=1.
// Worker admission is throttled by the same window, bounding in-flight
// plus buffered results to 4×Workers runs.
//
// Cancellation: runs that return the campaign context's cancellation
// error are classified as interrupted, not failed — they (and any
// completed results stuck behind them in fold order) are discarded,
// counted in Report.Interrupted, and rerun on resume. User cancellation
// therefore never shows up as cell failures, and a checkpoint written
// at cancellation resumes to a byte-identical final report.
func Execute(ctx context.Context, m Matrix, opt Options, fn RunFunc) (*Report, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Shard.Validate(); err != nil {
		return nil, err
	}
	if fn == nil {
		return nil, fmt.Errorf("campaign: nil RunFunc")
	}
	all := m.Expand()
	specs := opt.Shard.filterSpecs(all, m.NumCells(), m.runsPerCell())
	rep := newReport(&m)
	rep.Shard = opt.Shard.norm()
	rep.Fingerprint = matrixFingerprint(&m, all)

	// Resume: restore the fold frontier and aggregate state from an
	// existing checkpoint for this exact campaign and shard. A corrupt
	// checkpoint (torn write, disk full, truncation, another version)
	// degrades to a cold start with a warning — never a panic, never a
	// wrong resume. A fingerprint or shard mismatch stays a hard error:
	// the file is intact, it just belongs to a different campaign, and
	// cold-starting over it would silently clobber someone else's
	// progress.
	startSeq := 0
	if opt.Checkpoint != "" {
		f, err := ReadShardFile(opt.Checkpoint)
		if err == nil && (f.Fingerprint != rep.Fingerprint || f.Shard.norm() != rep.Shard) {
			return nil, fmt.Errorf("campaign: checkpoint %s was written by a different campaign, seed schedule, or shard; refusing to resume", opt.Checkpoint)
		}
		if err == nil {
			if startSeq, err = f.restore(rep); err != nil {
				err = fmt.Errorf("campaign: %s: %w", opt.Checkpoint, err)
			}
		}
		switch {
		case errors.Is(err, ErrCorruptShardFile):
			opt.warnf("%v; starting this shard cold", err)
		case err != nil && !errors.Is(err, fs.ErrNotExist):
			return nil, err
		}
	}

	remaining := len(specs) - startSeq
	nw := opt.workers()
	if nw > remaining {
		nw = remaining
	}
	// The reorder window bounds how far execution may run ahead of
	// in-order aggregation: 4 runs per worker keeps the out-of-order
	// buffer O(workers), so campaign memory stays O(cells), never O(runs).
	window := 4 * nw

	agg := &aggregator{
		ctx:        ctx,
		rep:        rep,
		total:      len(specs),
		startSeq:   startSeq,
		next:       startSeq,
		failures:   rep.Failures,
		pending:    make(map[int]foldItem, window),
		released:   make(chan struct{}, window),
		onProgress: opt.OnProgress,
		ckPath:     opt.Checkpoint,
		ckEvery:    opt.CheckpointEvery,
		ckInterval: opt.checkpointInterval(),
	}
	if agg.ckPath != "" {
		agg.ckLast = time.Now()
	}
	if agg.onProgress != nil {
		agg.start = time.Now()
		agg.cellWall = make([]float64, m.NumCells())
	}
	// Pre-fill admission tokens: up to `window` runs may be dispatched
	// beyond the fold frontier.
	for i := 0; i < window; i++ {
		agg.released <- struct{}{}
	}

	work := make(chan workItem)
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer wg.Done()
			for it := range work {
				var begin time.Time
				if agg.onProgress != nil {
					begin = time.Now()
				}
				s, err := runSafely(ctx, fn, it.spec)
				var wall float64
				if agg.onProgress != nil {
					wall = time.Since(begin).Seconds()
				}
				agg.deliver(it.seq, it.spec, s, err, wall)
			}
		}()
	}

	// Dispatcher: admit runs in fold order from the resume frontier, one
	// token per run. Tokens are recycled by the aggregator as results
	// fold (or are discarded), so dispatch never outruns aggregation by
	// more than the window.
	var dispatchErr error
dispatch:
	for seq := startSeq; seq < len(specs); seq++ {
		select {
		case <-ctx.Done():
			dispatchErr = ctx.Err()
			break dispatch
		case <-agg.released:
		}
		select {
		case <-ctx.Done():
			dispatchErr = ctx.Err()
			break dispatch
		case work <- workItem{seq: seq, spec: specs[seq]}:
		}
	}
	close(work)
	wg.Wait()

	// Finalize: surface the discarded-run count, persist the final
	// checkpoint, and emit the shard result file when complete.
	agg.mu.Lock()
	rep.Interrupted = agg.interrupted
	stopped := agg.stopped
	ckErr := agg.ckErr
	agg.mu.Unlock()

	// Cancellation can land after the dispatcher has already handed out
	// every run; the aggregator still froze and discarded the tail, so
	// the execution is interrupted, never silently partial.
	if dispatchErr == nil && stopped {
		dispatchErr = ctx.Err()
	}

	// The final checkpoint and the shard file are the same bytes,
	// encoded once.
	var data []byte
	write := func(path string) (err error) {
		if data == nil {
			if data, err = encodeShardFile(rep); err != nil {
				return err
			}
		}
		return writeShardFile(path, data)
	}
	if opt.Checkpoint != "" && ckErr == nil {
		ckErr = write(opt.Checkpoint)
	}
	if dispatchErr == nil {
		dispatchErr = ckErr
	}
	// No error left means every run folded: the shard is complete.
	if dispatchErr == nil && opt.ShardOut != "" {
		dispatchErr = write(opt.ShardOut)
	}
	return rep, dispatchErr
}

// runSafely invokes fn, converting a panic into an error so one bad
// cell cannot take down a whole campaign. The panic's stack is kept in
// the error: it is the only pointer to the offending scenario code.
func runSafely(ctx context.Context, fn RunFunc, spec RunSpec) (s Sample, err error) {
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, fmt.Errorf("run %s (run %d) panicked: %v\n%s",
				spec.Cell.Key(), spec.Run, r, debug.Stack())
		}
	}()
	return fn(ctx, spec)
}

// foldItem is a completed run waiting for its turn in the fold order.
type foldItem struct {
	spec RunSpec
	s    Sample
	err  error
	wall float64 // run execution wall seconds (0 unless OnProgress is set)
}

// aggregator folds results into cell aggregates in ascending dispatch
// order, buffering out-of-order arrivals. The buffer is bounded by the
// admission window: a token is only recycled when a result folds.
type aggregator struct {
	mu          sync.Mutex
	ctx         context.Context
	rep         *Report
	total       int
	startSeq    int // resume frontier (first seq executed this session)
	next        int // next seq to fold
	failures    int
	interrupted int  // results discarded because the campaign was cancelled
	stopped     bool // a cancelled run reached the fold frontier; fold is frozen
	pending     map[int]foldItem
	released    chan struct{}
	onProgress  func(Progress)
	start       time.Time // campaign start (set only when onProgress != nil)
	cellWall    []float64 // cumulative run wall seconds per cell

	ckPath     string
	ckEvery    int
	ckInterval time.Duration
	ckLast     time.Time
	ckFolds    int
	ckErr      error
}

// interruptedRun reports whether a run error is the campaign context's
// own cancellation (user interruption) rather than a scenario failure.
// A run returning context.Canceled while the campaign context is still
// live (e.g. from some internal sub-context) stays a real failure.
func (a *aggregator) interruptedRun(err error) bool {
	if err == nil || a.ctx.Err() == nil {
		return false
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// deliver accepts one completed run from a worker and folds every
// in-order result now available. Once a cancelled run reaches the fold
// frontier, folding freezes: that result and everything after it —
// including completed results stuck behind it — is discarded and
// counted as interrupted, so a resume (which reruns from the frozen
// frontier with the same derived seeds) converges to the exact report
// an uninterrupted execution would have produced.
func (a *aggregator) deliver(seq int, spec RunSpec, s Sample, err error, wall float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pending[seq] = foldItem{spec: spec, s: s, err: err, wall: wall}
	for {
		item, ok := a.pending[a.next]
		if !ok {
			return
		}
		delete(a.pending, a.next)
		if a.stopped || a.interruptedRun(item.err) {
			a.stopped = true
			a.interrupted++
			a.next++
			a.released <- struct{}{}
			continue
		}
		a.rep.fold(item.spec, item.s, item.err)
		if item.err != nil {
			a.failures++
		}
		a.next++
		if a.onProgress != nil {
			a.onProgress(a.progress(item))
		}
		a.maybeCheckpoint()
		a.released <- struct{}{}
	}
}

// maybeCheckpoint writes a periodic checkpoint when the wall-clock
// interval, or the fold count when one is set, has passed since the
// last one. Called under the aggregation lock, so the persisted
// frontier exactly matches the persisted aggregates; a write failure is
// remembered and surfaced by Execute rather than silently dropping
// durability.
func (a *aggregator) maybeCheckpoint() {
	if a.ckPath == "" || a.ckErr != nil {
		return
	}
	a.ckFolds++
	if (a.ckEvery <= 0 || a.ckFolds < a.ckEvery) && time.Since(a.ckLast) < a.ckInterval {
		return
	}
	a.ckFolds = 0
	a.ckLast = time.Now()
	a.ckErr = WriteShardFile(a.ckPath, a.rep)
}

// progress assembles the Progress tick for a just-folded run. Called
// under the aggregation lock.
func (a *aggregator) progress(item foldItem) Progress {
	a.cellWall[item.spec.CellIndex] += item.wall
	p := Progress{
		Campaign:        a.rep.Name,
		Spec:            item.spec,
		Sample:          item.s,
		Err:             item.err,
		RunWallSeconds:  item.wall,
		CellWallSeconds: a.cellWall[item.spec.CellIndex],
		ElapsedSeconds:  time.Since(a.start).Seconds(),
		Done:            a.next,
		Total:           a.total,
		Failures:        a.failures,
		Interrupted:     a.interrupted,
	}
	if p.ElapsedSeconds > 0 {
		p.RunsPerSec = float64(p.Done-a.startSeq) / p.ElapsedSeconds
	}
	if p.RunsPerSec > 0 {
		p.ETASeconds = float64(p.Total-p.Done) / p.RunsPerSec
	}
	return p
}
