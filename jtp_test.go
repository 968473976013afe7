package jtp

import (
	"errors"
	"strings"
	"testing"
)

func TestNewSimValidation(t *testing.T) {
	if _, err := NewSim(SimConfig{Nodes: 1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("1 node: %v", err)
	}
	if _, err := NewSim(SimConfig{Nodes: 5, Topology: TopologyKind(99)}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad topology kind: %v", err)
	}
	// Node ids are 16 bits: a 65537th node would alias node 0.
	if _, err := NewSim(SimConfig{Nodes: 1<<16 + 1}); !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), "nodes") {
		t.Fatalf("65537 nodes: %v", err)
	}
	if _, err := NewSim(SimConfig{Nodes: 5, MobilitySpeed: -1}); !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), "mobilitySpeed") {
		t.Fatalf("negative mobility speed: %v", err)
	}
}

func TestOpenFlowValidation(t *testing.T) {
	s, err := NewSim(SimConfig{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []FlowConfig{
		{Src: -1, Dst: 2},
		{Src: 0, Dst: 9},
		{Src: 2, Dst: 2},
		{Src: 0, Dst: 3, LossTolerance: 1.0},
		{Src: 0, Dst: 3, LossTolerance: -0.1},
	}
	for i, c := range cases {
		if _, err := s.OpenFlow(c); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("case %d accepted: %v", i, err)
		}
	}
}

func TestUnreachableEndpoints(t *testing.T) {
	s, err := NewSim(SimConfig{Nodes: 3, Spacing: 500}) // islands
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenFlow(FlowConfig{Src: 0, Dst: 2}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("expected unreachable, got %v", err)
	}
}

func TestQuickTransfer(t *testing.T) {
	s, err := NewSim(SimConfig{Nodes: 5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.OpenFlow(FlowConfig{Src: 0, Dst: 4, TotalPackets: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !s.RunUntilDone(3600) {
		t.Fatalf("transfer incomplete: %d/50", f.Delivered())
	}
	if f.Delivered() < 50 {
		t.Fatalf("delivered %d", f.Delivered())
	}
	if f.CompletedAt() <= 0 {
		t.Fatal("completion time missing")
	}
	if s.EnergyPerBit() <= 0 || s.TotalEnergy() <= 0 {
		t.Fatal("energy not metered")
	}
	if f.GoodputBps() <= 0 {
		t.Fatal("goodput zero")
	}
	if len(s.PerNodeEnergy()) != 5 {
		t.Fatal("per-node energy length")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, float64) {
		s, err := NewSim(SimConfig{Nodes: 6, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		f, err := s.OpenFlow(FlowConfig{Src: 0, Dst: 5, TotalPackets: 80})
		if err != nil {
			t.Fatal(err)
		}
		s.RunUntilDone(3600)
		return f.Delivered(), s.TotalEnergy()
	}
	d1, e1 := run()
	d2, e2 := run()
	if d1 != d2 || e1 != e2 {
		t.Fatalf("same seed diverged: (%d, %v) vs (%d, %v)", d1, e1, d2, e2)
	}
}

func TestJNCDisablesCaching(t *testing.T) {
	s, err := NewSim(SimConfig{Nodes: 6, Seed: 5, CacheCapacity: -1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.OpenFlow(FlowConfig{Src: 0, Dst: 5, TotalPackets: 100})
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntilDone(7200)
	if s.CacheHits() != 0 {
		t.Fatalf("JNC served %d cache hits", s.CacheHits())
	}
	if f.CacheRecovered() != 0 {
		t.Fatal("JNC flow saw cache recoveries")
	}
}

func TestLossToleranceFlow(t *testing.T) {
	s, err := NewSim(SimConfig{Nodes: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.OpenFlow(FlowConfig{Src: 0, Dst: 5, TotalPackets: 100, LossTolerance: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !s.RunUntilDone(7200) {
		t.Fatalf("jtp20 incomplete: %d", f.Delivered())
	}
	if f.Delivered() < 80 {
		t.Fatalf("delivered %d < 80 required", f.Delivered())
	}
}

func TestMobileSim(t *testing.T) {
	s, err := NewSim(SimConfig{
		Nodes:         12,
		Topology:      RandomTopology,
		MobilitySpeed: 1,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.OpenFlow(FlowConfig{Src: 0, Dst: 11})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(600)
	if f.Delivered() == 0 {
		t.Fatal("mobile stream delivered nothing")
	}
	if s.Now() < 600 {
		t.Fatalf("virtual clock = %v", s.Now())
	}
}

func TestStableChannelProfile(t *testing.T) {
	s, err := NewSim(SimConfig{Nodes: 5, Channel: StableChannel, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.OpenFlow(FlowConfig{Src: 0, Dst: 4, TotalPackets: 60})
	if err != nil {
		t.Fatal(err)
	}
	if !s.RunUntilDone(3600) {
		t.Fatal("stable-channel transfer incomplete")
	}
	if f.SourceRetransmissions() > 3 {
		t.Fatalf("stable channel needed %d source rtx", f.SourceRetransmissions())
	}
}

func TestMultipleFlowsShareFairly(t *testing.T) {
	s, err := NewSim(SimConfig{Nodes: 6, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	f1, err := s.OpenFlow(FlowConfig{Src: 0, Dst: 5})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := s.OpenFlow(FlowConfig{Src: 5, Dst: 0, StartAt: 10})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1200)
	g1, g2 := f1.GoodputBps(), f2.GoodputBps()
	if g1 <= 0 || g2 <= 0 {
		t.Fatal("a flow starved completely")
	}
	ratio := g1 / g2
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("unfair share: %.2f vs %.2f kbps", g1/1e3, g2/1e3)
	}
	if len(s.Flows()) != 2 {
		t.Fatal("flows accessor")
	}
}
