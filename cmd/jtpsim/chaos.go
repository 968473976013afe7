package main

// Worker-side fault injection for `jtpsim coord`: when the
// JTPSIM_CHAOS_EXIT_AT environment variable is set ("SEQ" for every
// shard, "SHARD:SEQ" for one), a campaign worker with -checkpoint
// os.Exit(3)s abruptly — no final checkpoint, no shard file — as soon as
// its fold frontier reaches SEQ. A stamp file next to the checkpoint
// makes the suicide one-shot per shard, so a restarted worker recovers
// instead of crash-looping: exactly the fault the supervision machinery
// must absorb.

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/javelen/jtp/internal/coordinator"
)

// armChaosExit parses JTPSIM_CHAOS_EXIT_AT ("SEQ" or "SHARD:SEQ") into
// chaosExitAt for this worker's shard; a worker without -checkpoint is
// never armed.
func (o *options) armChaosExit(shardIndex int) error {
	v := os.Getenv(coordinator.EnvChaosExitAt)
	if v == "" || o.checkpoint == "" {
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

// chaosSuicide dies abruptly at the armed fold seq, once per shard: the
// O_EXCL stamp file next to the checkpoint records that this shard's
// injected crash already happened, so the relaunched worker survives.
func (o *options) chaosSuicide(seq int) {
	stamp := o.checkpoint + ".chaos-fired"
	f, err := os.OpenFile(stamp, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return // stamp exists: this shard already crashed once
	}
	f.Close()
	fmt.Fprintf(os.Stderr, "jtpsim: chaos: exiting at fold seq %d (%s)\n", seq, coordinator.EnvChaosExitAt)
	os.Exit(coordinator.ChaosExitCode)
}
