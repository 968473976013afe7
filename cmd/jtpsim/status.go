package main

// Worker-side heartbeat protocol for `jtpsim coord`: with -status FILE a
// campaign worker appends rate-limited coordinator.StatusFrame lines
// (fold frontier, total, failures, runs/sec) so the supervising
// coordinator can tell a live shard from a hung one without parsing
// logs. The frames are its only liveness signal.
//
// The same file hosts the fault-injection knob: when the
// JTPSIM_CHAOS_EXIT_AT environment variable is set ("SEQ" for every
// shard, "SHARD:SEQ" for one), the worker os.Exit(3)s abruptly — no
// final checkpoint, no shard file — as soon as its fold frontier reaches
// SEQ. A stamp file next to the status file makes the suicide one-shot
// per shard, so a restarted worker recovers instead of crash-looping:
// exactly the fault the supervision machinery must absorb.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/coordinator"
)

// statusFrameInterval rate-limits heartbeat appends: while runs fold, a
// frame is written at the first fold at least this long after the last
// one, and the final frame (Done == Total) always writes. Checkpoints
// are written only at folds too, so a worker whose checkpoint advances
// also advances its frames.
const statusFrameInterval = 250 * time.Millisecond

// startStatusWriter opens the -status sink and arms the chaos knob for
// the worker's shard; onProgress writes the frames.
func (o *options) startStatusWriter(shardIndex int) error {
	if o.status == "" {
		return nil
	}
	f, err := os.OpenFile(o.status, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("status: %w", err)
	}
	o.statusFile = f
	return o.armChaosExit(shardIndex)
}

// armChaosExit parses JTPSIM_CHAOS_EXIT_AT ("SEQ" or "SHARD:SEQ") into
// chaosExitAt for this worker's shard.
func (o *options) armChaosExit(shardIndex int) error {
	v := os.Getenv(coordinator.EnvChaosExitAt)
	if v == "" {
		return nil
	}
	target := v
	if i := strings.IndexByte(v, ':'); i >= 0 {
		shard, err := strconv.Atoi(v[:i])
		if err != nil {
			return fmt.Errorf("%s: bad shard in %q", coordinator.EnvChaosExitAt, v)
		}
		if shard != shardIndex {
			return nil // aimed at a different shard
		}
		target = v[i+1:]
	}
	seq, err := strconv.Atoi(target)
	if err != nil || seq < 0 {
		return fmt.Errorf("%s: bad fold seq in %q", coordinator.EnvChaosExitAt, v)
	}
	o.chaosArmed, o.chaosExitAt = true, seq
	return nil
}

// onStatusProgress appends one heartbeat frame per interval (and always
// the final one), then fires the armed chaos suicide.
func (o *options) onStatusProgress(p campaign.Progress) {
	now := time.Now()
	if p.Done == p.Total || now.Sub(o.statusLastWrite) >= statusFrameInterval {
		o.statusLastWrite = now
		if err := coordinator.AppendFrame(o.statusFile, coordinator.StatusFrame{
			Seq:        p.Done,
			Total:      p.Total,
			Failures:   p.Failures,
			RunsPerSec: p.RunsPerSec,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "jtpsim: status: %v\n", err)
		}
	}
	if o.chaosArmed && p.Done >= o.chaosExitAt {
		o.chaosSuicide(p.Done)
	}
}

// chaosSuicide dies abruptly at the armed fold seq, once per shard: the
// O_EXCL stamp file next to the status file records that this shard's
// injected crash already happened, so the relaunched worker survives.
func (o *options) chaosSuicide(seq int) {
	stamp := o.status + ".chaos-fired"
	f, err := os.OpenFile(stamp, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return // stamp exists: this shard already crashed once
	}
	f.Close()
	fmt.Fprintf(os.Stderr, "jtpsim: chaos: exiting at fold seq %d (%s)\n", seq, coordinator.EnvChaosExitAt)
	os.Exit(coordinator.ChaosExitCode)
}
