package ijtp

import (
	"testing"

	"github.com/javelen/jtp/internal/mac"
	"github.com/javelen/jtp/internal/packet"
)

func TestDeadlineDrop(t *testing.T) {
	pl := New(1, Defaults(), fakeView{hops: 2}, nil)
	now := 100.0
	pl.Clock = func() float64 { return now }

	p := dataPkt(1)
	p.Flags |= packet.FlagDeadline
	p.Deadline = 150
	fr := &mac.Frame{Seg: p, MaxAttempts: 1}
	link := mac.LinkInfo{FirstAttempt: true, AttemptCost: 1e-6, LossRate: 0.1, AvailRate: 5}
	if pl.PreXmit(fr, link) != mac.Continue {
		t.Fatal("unexpired packet dropped")
	}
	now = 151
	fr2 := &mac.Frame{Seg: p.Clone(), MaxAttempts: 1}
	if pl.PreXmit(fr2, link) != mac.Drop {
		t.Fatal("expired packet transmitted")
	}
	if pl.Counters().DeadlineDrops != 1 {
		t.Fatalf("deadline drops = %d", pl.Counters().DeadlineDrops)
	}
}

func TestDeadlineIgnoredWithoutClock(t *testing.T) {
	pl := New(1, Defaults(), fakeView{hops: 2}, nil)
	p := dataPkt(1)
	p.Deadline = 1 // long past, but no clock installed
	fr := &mac.Frame{Seg: p, MaxAttempts: 1}
	if pl.PreXmit(fr, mac.LinkInfo{FirstAttempt: true, AttemptCost: 1e-6, LossRate: 0.1, AvailRate: 5}) != mac.Continue {
		t.Fatal("deadline enforced without a clock")
	}
}

func TestPluginCachePolicyWiring(t *testing.T) {
	cfg := Defaults()
	cfg.CachePolicy = 2 // cache.Random
	pl := New(1, cfg, fakeView{hops: 2}, nil)
	if pl.Cache().Policy().String() != "random" {
		t.Fatalf("cache policy = %v", pl.Cache().Policy())
	}
}
