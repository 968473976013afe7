// Package coordinator is the fault-tolerant shard coordinator behind
// `jtpsim coord`: it expands a campaign into N shards, drives each as a
// child jtpsim worker process (`-shard i/N -shard-out … -checkpoint …
// -checkpoint-interval …`) on a bounded process pool, and survives the
// faults a multi-hour sweep will actually hit — worker crashes, hangs,
// OOM kills, and the death of the coordinator itself.
//
// The robustness machinery:
//
//   - Liveness: a worker rewrites its checkpoint at the first fold after
//     each CheckpointInterval, so the checkpoint's mtime is its
//     heartbeat; the coordinator declares a shard dead on process exit
//     ≠ 0 OR when the mtime stands still for CheckpointInterval +
//     StallTimeout — catching stuck workers, not just crashed ones.
//   - Restart: dead shards relaunch with exponential backoff + jitter
//     under a per-shard retry budget, resuming from their
//     fingerprint-guarded checkpoint so only the uncheckpointed tail
//     re-executes.
//   - Graceful degradation: a shard that exhausts its budget is marked
//     failed; the rest of the campaign completes, and the merge step
//     folds what exists with explicit missing-shard accounting
//     (campaign.MergeAvailable).
//   - The out-dir is the state: the coordinator keeps none of its own.
//     A restarted coordinator reads each shard's result file and
//     checkpoint: a result of this campaign (same fingerprint, same
//     shard i/N) means done, anything else relaunches and resumes from
//     its checkpoint, and a file of another campaign is refused before
//     any worker launches. So a SIGKILLed coordinator resumes by
//     rerunning the same command.
//   - Auto-merge: when every shard completes, the shard files fold via
//     campaign.MergeReports under its byte-identity contract — the
//     merged report equals the unsharded run's, faults and all.
//
// Fault injection for tests and CI rides the same paths: ChaosKillRate
// SIGKILLs random running workers from the coordinator side, and the
// EnvChaosExitAt environment knob makes workers kill themselves at a
// deterministic fold sequence.
package coordinator

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/javelen/jtp/internal/campaign"
)

// Config tunes a coordinator run.
type Config struct {
	// WorkerBin is the worker executable (normally the running jtpsim
	// binary itself); WorkerArgs is the campaign-mode prefix, e.g.
	// ["batch", "-matrix", "m.json", "-par", "2"]. The coordinator
	// appends -shard/-shard-out/-checkpoint/-checkpoint-interval per
	// launch.
	WorkerBin  string
	WorkerArgs []string
	// Matrix is the campaign the workers run. Its fingerprint decides
	// which files in OutDir belong to this campaign.
	Matrix campaign.Matrix
	// Shards is the number of campaign shards (N of -shard i/N).
	Shards int
	// Workers bounds concurrently running worker processes; <= 0 means
	// min(Shards, GOMAXPROCS).
	Workers int
	// OutDir holds every coordination artifact: shard result files,
	// checkpoints and worker logs.
	OutDir string
	// RetryBudget is the number of restarts each shard may consume
	// beyond its first launch (0 = one attempt, no retries); < 0 means
	// the default 3.
	RetryBudget int
	// BackoffBase/BackoffMax shape the exponential restart backoff:
	// attempt k waits base·2^(k-1) (+ up to 50% jitter), capped at max.
	// Defaults: 500ms / 15s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// CheckpointInterval is the workers' periodic checkpoint interval:
	// a worker rewrites its checkpoint at the first fold after each
	// one. <= 0 means 2s.
	CheckpointInterval time.Duration
	// StallTimeout declares a running shard dead when its checkpoint
	// has not been rewritten for CheckpointInterval + StallTimeout, that
	// is, no fold for StallTimeout after the checkpoint came due (a hung
	// worker, not just a crashed one); <= 0 means 2m.
	StallTimeout time.Duration
	// Poll is the supervision tick (liveness checks, chaos, backoff
	// expiry); <= 0 means 200ms.
	Poll time.Duration
	// ChaosKillRate injects faults: the per-second probability, per
	// running worker, of being SIGKILLed by the coordinator. 0 (the
	// default) disables chaos. ChaosSeed makes the kill schedule and
	// backoff jitter reproducible (0 means 1).
	ChaosKillRate float64
	ChaosSeed     int64
	// Env appends to the workers' environment (os.Environ is inherited).
	Env []string
	// Log, when non-nil, receives the coordinator's event log (one line
	// per launch/death/backoff/merge).
	Log io.Writer
}

func (c *Config) workers() int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > c.Shards {
		w = c.Shards
	}
	return w
}

func (c *Config) retryBudget() int {
	if c.RetryBudget < 0 {
		return 3
	}
	return c.RetryBudget
}

func (c *Config) backoffBase() time.Duration {
	if c.BackoffBase <= 0 {
		return 500 * time.Millisecond
	}
	return c.BackoffBase
}

func (c *Config) backoffMax() time.Duration {
	if c.BackoffMax <= 0 {
		return 15 * time.Second
	}
	return c.BackoffMax
}

func (c *Config) checkpointInterval() time.Duration {
	if c.CheckpointInterval <= 0 {
		return 2 * time.Second
	}
	return c.CheckpointInterval
}

func (c *Config) stallTimeout() time.Duration {
	if c.StallTimeout <= 0 {
		return 2 * time.Minute
	}
	return c.StallTimeout
}

func (c *Config) poll() time.Duration {
	if c.Poll <= 0 {
		return 200 * time.Millisecond
	}
	return c.Poll
}

// shardState is a shard's supervision state.
type shardState int

const (
	statePending shardState = iota
	stateRunning
	stateDone
	stateFailed
)

func (s shardState) String() string {
	switch s {
	case statePending:
		return "pending"
	case stateRunning:
		return "running"
	case stateDone:
		return "done"
	case stateFailed:
		return "failed"
	}
	return "unknown"
}

// shardRun is one shard's live supervision record.
type shardRun struct {
	index        int
	state        shardState
	attempts     int // launches so far
	lastError    string
	proc         *os.Process
	killReason   string    // set before an intentional kill (chaos/stall/shutdown)
	anchor       time.Time // when ckModTime last changed, or the launch
	ckModTime    time.Time // the checkpoint's mtime at the last look
	backoffUntil time.Time
	result       *campaign.ShardFile // parsed result file, set when done
}

// ShardStatus is one shard's externally visible state (Snapshot, final
// Result table).
type ShardStatus struct {
	Index           int    `json:"index"`
	State           string `json:"state"`
	Attempts        int    `json:"attempts"`
	CheckpointAgeMs int64  `json:"checkpoint_age_ms,omitempty"`
	LastError       string `json:"lastError,omitempty"`
}

// Snapshot is a point-in-time view of the coordinator, served live via
// expvar by `jtpsim coord -debug-addr`.
type Snapshot struct {
	Shards   []ShardStatus     `json:"shards"`
	Pending  int               `json:"pending"`
	Running  int               `json:"running"`
	Done     int               `json:"done"`
	Failed   int               `json:"failed"`
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// Result is a coordinator run's outcome.
type Result struct {
	// Report is the merged campaign report: complete (byte-identical to
	// the unsharded run) when Failed and Interrupted are empty, partial
	// otherwise, nil when no shard completed at all.
	Report *campaign.Report
	// Gaps accounts for the shards missing from a partial merge (nil
	// when the merge was complete or nothing merged).
	Gaps *campaign.MergeGaps
	// Done, Failed and Interrupted classify every shard: completed,
	// retry budget exhausted, and never finished because the
	// coordinator itself was cancelled (the interrupted-vs-failed
	// distinction of the campaign layer, lifted to whole shards).
	Done, Failed, Interrupted []int
	// Table is the final per-shard supervision state.
	Table []ShardStatus
	// Counters snapshots the coordinator's supervision counters.
	Counters map[string]uint64
}

// Degraded reports whether any shard failed permanently.
func (r *Result) Degraded() bool { return len(r.Failed) > 0 }

// exitEvent is a worker process exit, delivered by its monitor
// goroutine to the supervisor loop.
type exitEvent struct {
	index int
	err   error // cmd.Wait result
}

// Coordinator supervises one sharded campaign. Create with New, drive
// with Run; Snapshot may be called concurrently from other goroutines.
type Coordinator struct {
	cfg Config

	mu     sync.Mutex
	shards []*shardRun

	events chan exitEvent
	rng    *rand.Rand

	// Supervision counters, guarded by mu (see countersLocked).
	restarts, deadDetections, backoffMs      uint64
	chaosKills, stallKills, checkpointAgeHWM uint64
}

// New validates the configuration and prepares (but does not start) a
// coordinator. OutDir is created if missing.
func New(cfg Config) (*Coordinator, error) {
	if cfg.WorkerBin == "" {
		return nil, fmt.Errorf("coordinator: empty WorkerBin")
	}
	if len(cfg.WorkerArgs) == 0 {
		return nil, fmt.Errorf("coordinator: empty WorkerArgs")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("coordinator: shard count %d < 1", cfg.Shards)
	}
	if cfg.OutDir == "" {
		return nil, fmt.Errorf("coordinator: empty OutDir")
	}
	if cfg.ChaosKillRate < 0 {
		return nil, fmt.Errorf("coordinator: negative chaos kill rate %g", cfg.ChaosKillRate)
	}
	if err := cfg.Matrix.Validate(); err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	seed := cfg.ChaosSeed
	if seed == 0 {
		seed = 1
	}
	c := &Coordinator{
		cfg:    cfg,
		events: make(chan exitEvent, cfg.Shards),
		rng:    rand.New(rand.NewSource(seed)),
	}
	return c, nil
}

// countersLocked snapshots the supervision counters; callers hold c.mu.
func (c *Coordinator) countersLocked() map[string]uint64 {
	return map[string]uint64{
		"coord_shard_restarts":        c.restarts,
		"coord_shard_dead_detections": c.deadDetections,
		"coord_backoff_ms_total":      c.backoffMs,
		"coord_checkpoint_age_ms_hwm": c.checkpointAgeHWM,
		"coord_chaos_kills":           c.chaosKills,
		"coord_stall_kills":           c.stallKills,
	}
}

// Artifact paths inside OutDir: shard-007.json and so on.

func (c *Coordinator) shardPath(i int, kind string) string {
	return filepath.Join(c.cfg.OutDir, fmt.Sprintf("shard-%03d%s", i, kind))
}
func (c *Coordinator) shardOutPath(i int) string   { return c.shardPath(i, ".json") }
func (c *Coordinator) checkpointPath(i int) string { return c.shardPath(i, ".ck.json") }
func (c *Coordinator) logPath(i int) string        { return c.shardPath(i, ".log") }

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		fmt.Fprintf(c.cfg.Log, "coord: "+format+"\n", args...)
	}
}

// Run drives every shard to done or failed, then merges. It returns a
// Result even on error when any supervision happened: on ctx
// cancellation the result classifies unfinished shards as interrupted,
// and their checkpoints let a later invocation resume.
func (c *Coordinator) Run(ctx context.Context) (*Result, error) {
	if err := c.restoreShardTable(); err != nil {
		return nil, err
	}

	ticker := time.NewTicker(c.cfg.poll())
	defer ticker.Stop()
	var supErr error   // first infrastructure error (worker log), fatal
	cancelled := false // ctx cancelled before the campaign finished

loop:
	for supErr == nil && !c.allTerminal() {
		supErr = c.launchEligible()
		if supErr != nil {
			break
		}
		select {
		case <-ctx.Done():
			cancelled = true
			break loop
		case ev := <-c.events:
			c.handleExit(ev)
		case <-ticker.C:
			c.superviseTick()
		}
	}

	if cancelled || supErr != nil {
		c.shutdownWorkers()
	}
	res, mergeErr := c.finalize()
	switch {
	case supErr != nil:
		return res, supErr
	case cancelled:
		return res, ctx.Err()
	default:
		return res, mergeErr
	}
}

// restoreShardTable builds the shard table from OutDir, the only state
// a coordinator resumes from: a shard whose result file is of this
// campaign is done, and every other shard is pending, its worker
// resuming from its checkpoint. A running shard's retry budget restarts
// with the coordinator, as a failed shard's does. A readable result or
// checkpoint of another campaign or shard split is refused before any
// worker launches, as merge refuses it. A corrupt one is ignored: the
// shard runs again, its worker cold-starting over a corrupt checkpoint.
func (c *Coordinator) restoreShardTable() error {
	fingerprint := c.cfg.Matrix.Fingerprint()
	shards := make([]*shardRun, c.cfg.Shards)
	for i := range shards {
		shards[i] = &shardRun{index: i, state: statePending}
		want := campaign.Shard{Index: i, Of: c.cfg.Shards}
		var files [2]*campaign.ShardFile // result, checkpoint
		for k, path := range []string{c.shardOutPath(i), c.checkpointPath(i)} {
			f, err := campaign.ReadShardFile(path)
			switch {
			case errors.Is(err, fs.ErrNotExist):
			case err != nil:
				c.logf("shard %d: ignoring an unusable file: %v", i, err)
			case f.Fingerprint != fingerprint || f.Shard.String() != want.String():
				return fmt.Errorf("coordinator: %s belongs to a different campaign (shard %s, fingerprint %.12s…; this is shard %s, fingerprint %.12s…); use a fresh -out directory",
					path, f.Shard, f.Fingerprint, want, fingerprint)
			default:
				files[k] = f
			}
		}
		switch result, ck := files[0], files[1]; {
		case result != nil:
			shards[i].state, shards[i].result = stateDone, result
		case ck != nil:
			c.logf("shard %d will resume from fold frontier %d", i, ck.Runs)
		}
	}
	c.mu.Lock()
	c.shards = shards
	c.mu.Unlock()
	return nil
}

// launchEligible starts pending shards whose backoff expired while
// worker slots are free.
func (c *Coordinator) launchEligible() error {
	c.mu.Lock()
	now := time.Now()
	running := 0
	for _, s := range c.shards {
		if s.state == stateRunning {
			running++
		}
	}
	var toLaunch []*shardRun
	for _, s := range c.shards {
		if running+len(toLaunch) >= c.cfg.workers() {
			break
		}
		if s.state == statePending && !now.Before(s.backoffUntil) {
			toLaunch = append(toLaunch, s)
		}
	}
	c.mu.Unlock()

	for _, s := range toLaunch {
		if err := c.launch(s); err != nil {
			return err
		}
	}
	return nil
}

// launch starts one worker process for a shard.
func (c *Coordinator) launch(s *shardRun) error {
	argv := append(append([]string{}, c.cfg.WorkerArgs...),
		"-shard", fmt.Sprintf("%d/%d", s.index, c.cfg.Shards),
		"-shard-out", c.shardOutPath(s.index),
		"-checkpoint", c.checkpointPath(s.index),
		"-checkpoint-interval", c.cfg.checkpointInterval().String(),
	)
	logf, err := os.OpenFile(c.logPath(s.index), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("coordinator: shard %d log: %w", s.index, err)
	}
	cmd := exec.Command(c.cfg.WorkerBin, argv...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.Env = append(os.Environ(), c.cfg.Env...)
	ckModTime := modTime(c.checkpointPath(s.index))

	c.mu.Lock()
	s.attempts++
	attempt := s.attempts
	if attempt > 1 {
		c.restarts++
	}
	err = cmd.Start()
	if err == nil {
		s.state = stateRunning
		s.proc = cmd.Process
		s.killReason = ""
		s.anchor, s.ckModTime = time.Now(), ckModTime
	}
	c.mu.Unlock()

	if err != nil {
		logf.Close()
		// Exec failure (binary gone, fd exhaustion): treated like an
		// instant worker death so the retry budget applies.
		c.logf("shard %d attempt %d failed to start: %v", s.index, attempt, err)
		c.markDead(s, fmt.Sprintf("failed to start: %v", err))
		return nil
	}
	from := "from its checkpoint"
	if ckModTime.IsZero() {
		from = "cold"
	}
	c.logf("shard %d/%d launched (attempt %d/%d, pid %d, %s)",
		s.index, c.cfg.Shards, attempt, c.cfg.retryBudget()+1, cmd.Process.Pid, from)
	idx := s.index
	go func() {
		werr := cmd.Wait()
		logf.Close()
		c.events <- exitEvent{index: idx, err: werr}
	}()
	return nil
}

// handleExit classifies one worker exit: clean completion with a valid
// shard file is done; anything else is a death that consumes retry
// budget.
func (c *Coordinator) handleExit(ev exitEvent) {
	c.mu.Lock()
	s := c.shards[ev.index]
	killReason := s.killReason
	s.proc = nil
	c.mu.Unlock()

	if ev.err == nil {
		f, ferr := campaign.ReadShardFile(c.shardOutPath(ev.index))
		if ferr != nil {
			c.markDead(s, fmt.Sprintf("exited 0 without a valid shard file: %v", ferr))
			return
		}
		c.mu.Lock()
		s.state, s.result = stateDone, f
		s.lastError = ""
		attempts := s.attempts
		c.mu.Unlock()
		c.logf("shard %d done (attempt %d)", ev.index, attempts)
		return
	}
	reason := fmt.Sprintf("worker died: %v", ev.err)
	if killReason != "" {
		reason = killReason
	}
	c.markDead(s, reason)
}

// markDead books a shard death: dead-detection counter, retry budget,
// exponential backoff with jitter (or permanent failure).
func (c *Coordinator) markDead(s *shardRun, reason string) {
	c.mu.Lock()
	s.lastError = reason
	s.proc = nil
	c.deadDetections++
	budget := c.cfg.retryBudget()
	if s.attempts >= budget+1 {
		s.state = stateFailed
		c.mu.Unlock()
		c.logf("shard %d FAILED permanently after %d attempts (%s)", s.index, s.attempts, reason)
		return
	}
	// Exponential backoff with up-to-50% jitter, capped.
	d := c.cfg.backoffBase() << (s.attempts - 1)
	if d > c.cfg.backoffMax() || d <= 0 {
		d = c.cfg.backoffMax()
	}
	d += time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	s.state = statePending
	s.backoffUntil = time.Now().Add(d)
	c.backoffMs += uint64(d.Milliseconds())
	c.mu.Unlock()
	c.logf("shard %d died (%s); restart %d/%d in %s", s.index, reason, s.attempts, budget, d.Round(time.Millisecond))
}

// modTime is path's mtime, or the zero time when it cannot be stat'ed.
func modTime(path string) time.Time {
	st, err := os.Stat(path)
	if err != nil {
		return time.Time{}
	}
	return st.ModTime()
}

// superviseTick runs the periodic checks on every running shard:
// checkpoint progress, stall detection, and chaos injection.
func (c *Coordinator) superviseTick() {
	now := time.Now()
	chaosP := c.cfg.ChaosKillRate * c.cfg.poll().Seconds()
	deadline := c.cfg.checkpointInterval() + c.cfg.stallTimeout()

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.shards {
		if s.state != stateRunning || s.proc == nil {
			continue
		}
		// Progress: a rewritten checkpoint resets the liveness anchor.
		// Workers rewrite it at the first fold after each interval.
		if mt := modTime(c.checkpointPath(s.index)); !mt.Equal(s.ckModTime) {
			s.ckModTime, s.anchor = mt, now
		}
		age := now.Sub(s.anchor)
		c.checkpointAgeHWM = max(c.checkpointAgeHWM, uint64(age.Milliseconds()))
		if age > deadline {
			// Stuck, not crashed: no checkpoint when one was due. SIGKILL
			// and let the exit path restart it.
			s.killReason = fmt.Sprintf("stalled: no checkpoint for %s", age.Round(time.Second))
			c.stallKills++
			c.logf("shard %d %s; killing pid %d", s.index, s.killReason, s.proc.Pid)
			s.proc.Kill()
			continue
		}
		if chaosP > 0 && c.rng.Float64() < chaosP {
			s.killReason = "chaos: injected SIGKILL"
			c.chaosKills++
			c.logf("shard %d chaos kill (pid %d)", s.index, s.proc.Pid)
			s.proc.Kill()
		}
	}
}

// shutdownWorkers terminates every running worker: SIGTERM first (the
// worker writes a final checkpoint and exits cleanly), SIGKILL after a
// grace period, consuming exit events so no monitor goroutine leaks.
func (c *Coordinator) shutdownWorkers() {
	c.mu.Lock()
	running := 0
	for _, s := range c.shards {
		if s.state == stateRunning && s.proc != nil {
			s.killReason = "coordinator shutting down"
			s.proc.Signal(os.Interrupt)
			running++
		}
	}
	c.mu.Unlock()
	if running == 0 {
		return
	}
	c.logf("shutting down: interrupted %d running workers", running)

	grace := time.After(5 * time.Second)
	for running > 0 {
		select {
		case ev := <-c.events:
			c.mu.Lock()
			s := c.shards[ev.index]
			s.proc = nil
			// Its process is gone: the final table shows it pending, and
			// its checkpoint resumes it next time.
			if s.state == stateRunning {
				s.state = statePending
			}
			c.mu.Unlock()
			running--
		case <-grace:
			c.mu.Lock()
			for _, s := range c.shards {
				if s.state == stateRunning && s.proc != nil {
					c.logf("shard %d ignored SIGINT; killing pid %d", s.index, s.proc.Pid)
					s.proc.Kill()
				}
			}
			c.mu.Unlock()
			grace = time.After(5 * time.Second)
		}
	}
}

// allTerminal reports whether every shard is done or failed.
func (c *Coordinator) allTerminal() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.shards {
		if s.state != stateDone && s.state != stateFailed {
			return false
		}
	}
	return true
}

// finalize classifies shards, merges what completed, and assembles the
// Result. Non-terminal shards are classified as interrupted: reaching
// finalize with them unfinished means the coordinator was cancelled.
func (c *Coordinator) finalize() (*Result, error) {
	res := &Result{}
	var files []*campaign.ShardFile
	c.mu.Lock()
	for _, s := range c.shards {
		switch s.state {
		case stateDone:
			res.Done = append(res.Done, s.index)
			files = append(files, s.result)
		case stateFailed:
			res.Failed = append(res.Failed, s.index)
		default:
			res.Interrupted = append(res.Interrupted, s.index)
		}
	}
	res.Table = c.statusTableLocked()
	res.Counters = c.countersLocked()
	c.mu.Unlock()

	if len(res.Done) == 0 {
		// Nothing to merge: every shard, and so every cell and run of
		// the matrix, is missing.
		res.Gaps = &campaign.MergeGaps{
			Of:           c.cfg.Shards,
			MissingCells: c.cfg.Matrix.NumCells(),
			MissingRuns:  c.cfg.Matrix.NumRuns(),
		}
		for i := range c.cfg.Shards {
			res.Gaps.Missing = append(res.Gaps.Missing, i)
		}
		return res, nil
	}

	if len(res.Failed) == 0 && len(res.Interrupted) == 0 {
		rep, err := campaign.MergeReports(files...)
		if err != nil {
			return res, fmt.Errorf("coordinator: merging: %w", err)
		}
		res.Report = rep
		c.logf("merged %d shards: %d runs, %d failures", len(files), rep.Runs, rep.Failures)
		return res, nil
	}
	rep, gaps, err := campaign.MergeAvailable(files...)
	if err != nil {
		return res, fmt.Errorf("coordinator: partial merge: %w", err)
	}
	res.Report = rep
	res.Gaps = gaps
	c.logf("partial merge: %d/%d shards, %d runs folded, %d cells / %d runs missing",
		len(files), c.cfg.Shards, rep.Runs, gaps.MissingCells, gaps.MissingRuns)
	return res, nil
}

// Snapshot returns the current supervision state; safe to call from any
// goroutine (the -debug-addr expvar handler does).
func (c *Coordinator) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := Snapshot{Shards: c.statusTableLocked()}
	for _, s := range c.shards {
		switch s.state {
		case statePending:
			snap.Pending++
		case stateRunning:
			snap.Running++
		case stateDone:
			snap.Done++
		case stateFailed:
			snap.Failed++
		}
	}
	snap.Counters = c.countersLocked()
	return snap
}

// statusTableLocked renders the shard table; callers hold c.mu.
func (c *Coordinator) statusTableLocked() []ShardStatus {
	now := time.Now()
	out := make([]ShardStatus, len(c.shards))
	for i, s := range c.shards {
		st := ShardStatus{
			Index:     s.index,
			State:     s.state.String(),
			Attempts:  s.attempts,
			LastError: s.lastError,
		}
		if s.state == stateRunning {
			st.CheckpointAgeMs = now.Sub(s.anchor).Milliseconds()
		}
		out[i] = st
	}
	return out
}
