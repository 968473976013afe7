package coordinator

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
)

// JournalVersion is the coordinator journal schema version; readers
// reject other versions.
const JournalVersion = 1

// ErrCorruptJournal marks a journal file that exists but cannot be
// parsed (torn write, disk full). The coordinator degrades to a fresh
// shard table with a warning — per-shard checkpoints still make the
// restarted shards resume cheaply, so nothing is lost but bookkeeping.
var ErrCorruptJournal = errors.New("corrupt coordinator journal")

// JournalShard is one shard's durable supervision state.
type JournalShard struct {
	Index int `json:"index"`
	// State is "pending", "running", "done", or "failed" ("backoff" is
	// persisted as "pending": a restarted coordinator re-launches
	// immediately rather than honoring a stale backoff deadline).
	State string `json:"state"`
	// Attempts counts worker launches so far.
	Attempts int `json:"attempts"`
	// LastError describes the most recent death, if any.
	LastError string `json:"lastError,omitempty"`
}

// Journal is the coordinator's crash-safe shard table, written
// atomically on every state transition so `jtpsim coord` itself can be
// SIGKILLed and resumed: done shards stay done, running shards rewind
// to pending (their processes died with the coordinator; their
// checkpoints make the relaunch a cheap resume), and failed shards are
// granted a fresh retry budget by the new invocation.
type Journal struct {
	// Version is JournalVersion; readers reject anything else.
	Version int `json:"version"`
	// Identity hashes the campaign the journal supervises (worker argv
	// + shard count); a journal for a different campaign is refused, so
	// an out-dir can never be silently reused across sweeps.
	Identity string `json:"identity"`
	// Shards is the full shard table, ascending by index.
	Shards []JournalShard `json:"shards"`
}

// journalIdentity hashes what must match for a journal to be resumable:
// the worker command (which pins the matrix/experiment, scale, seeds)
// and the shard count.
func journalIdentity(workerArgs []string, shards int) string {
	h := sha256.New()
	for _, a := range workerArgs {
		fmt.Fprintf(h, "%d:%s|", len(a), a)
	}
	fmt.Fprintf(h, "shards=%d", shards)
	return hex.EncodeToString(h.Sum(nil))
}

// loadJournal reads and validates a journal. A missing file returns
// (nil, nil). Unparseable content wraps ErrCorruptJournal; an identity
// or shape mismatch is a hard error (the out-dir belongs to a different
// campaign).
func loadJournal(path, identity string, shards int) (*Journal, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("coordinator: journal: %w", err)
	}
	var j Journal
	if len(data) == 0 {
		return nil, fmt.Errorf("coordinator: journal %s: empty file: %w", path, ErrCorruptJournal)
	}
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("coordinator: journal %s: %v: %w", path, err, ErrCorruptJournal)
	}
	if j.Version != JournalVersion {
		return nil, fmt.Errorf("coordinator: journal %s: version %d, this build reads %d",
			path, j.Version, JournalVersion)
	}
	if j.Identity != identity {
		return nil, fmt.Errorf("coordinator: journal %s was written for a different campaign or shard count; use a fresh -out directory (or delete the journal)", path)
	}
	if len(j.Shards) != shards {
		return nil, fmt.Errorf("coordinator: journal %s has %d shards, campaign has %d: %w",
			path, len(j.Shards), shards, ErrCorruptJournal)
	}
	for i := range j.Shards {
		s := &j.Shards[i]
		if s.Index != i {
			return nil, fmt.Errorf("coordinator: journal %s shard %d claims index %d: %w",
				path, i, s.Index, ErrCorruptJournal)
		}
		switch s.State {
		case "pending", "running", "done", "failed":
		default:
			return nil, fmt.Errorf("coordinator: journal %s shard %d in unknown state %q: %w",
				path, i, s.State, ErrCorruptJournal)
		}
	}
	return &j, nil
}

// shardFileName names the per-shard artifacts inside the out-dir.
func shardFileName(kind string, index int) string {
	return "shard-" + pad3(index) + kind
}

func pad3(i int) string {
	s := strconv.Itoa(i)
	for len(s) < 3 {
		s = "0" + s
	}
	return s
}
