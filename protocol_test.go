package jtp_test

import (
	"errors"
	"slices"
	"testing"

	"github.com/javelen/jtp"
)

// TestOpenFlowTCPBaseline runs a rate-paced TCP-SACK transfer end to
// end through the public API via the FlowConfig.Protocol knob — the
// paper's baseline, previously reachable only from internal packages.
func TestOpenFlowTCPBaseline(t *testing.T) {
	s, err := jtp.NewSim(jtp.SimConfig{Nodes: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.OpenFlow(jtp.FlowConfig{Src: 0, Dst: 4, TotalPackets: 50, Protocol: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	if !s.RunUntilDone(5000) {
		t.Fatalf("tcp transfer did not complete: delivered %d/50", f.Delivered())
	}
	if got := f.Protocol(); got != "tcp" {
		t.Errorf("flow protocol = %q, want tcp", got)
	}
	if f.Delivered() != 50 {
		t.Errorf("delivered %d unique packets, want 50 (TCP is fully reliable)", f.Delivered())
	}
	if f.GoodputBps() <= 0 {
		t.Error("no goodput reported")
	}
	if f.Rate() != 0 {
		t.Errorf("Rate() = %g for tcp, want 0 (JTP-specific)", f.Rate())
	}
	if f.CacheRecovered() != 0 {
		t.Errorf("CacheRecovered() = %d for tcp, want 0 (no in-network recovery)", f.CacheRecovered())
	}
}

// TestSimDefaultProtocol makes SimConfig.Protocol the default for every
// flow, with FlowConfig.Protocol overriding per flow on one substrate.
func TestSimDefaultProtocol(t *testing.T) {
	s, err := jtp.NewSim(jtp.SimConfig{Nodes: 4, Seed: 7, Protocol: "atp"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Protocol() != "atp" {
		t.Fatalf("Sim protocol = %q, want atp", s.Protocol())
	}
	inherit, err := s.OpenFlow(jtp.FlowConfig{Src: 0, Dst: 3, TotalPackets: 20})
	if err != nil {
		t.Fatal(err)
	}
	override, err := s.OpenFlow(jtp.FlowConfig{Src: 3, Dst: 0, TotalPackets: 20, Protocol: "jtp", StartAt: 5})
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntilDone(5000)
	if got := inherit.Protocol(); got != "atp" {
		t.Errorf("inherited flow protocol = %q, want atp", got)
	}
	if got := override.Protocol(); got != "jtp" {
		t.Errorf("overridden flow protocol = %q, want jtp", got)
	}
	if inherit.Delivered() == 0 || override.Delivered() == 0 {
		t.Errorf("deliveries: atp=%d jtp=%d, want both > 0",
			inherit.Delivered(), override.Delivered())
	}
}

// TestUnknownProtocolIsError pins the error contract: unregistered
// protocol names surface as ErrBadConfig naming the registered set, at
// both the Sim and the flow level.
func TestUnknownProtocolIsError(t *testing.T) {
	if _, err := jtp.NewSim(jtp.SimConfig{Nodes: 3, Protocol: "quic"}); !errors.Is(err, jtp.ErrBadConfig) {
		t.Errorf("NewSim(Protocol: quic): got %v, want ErrBadConfig", err)
	}
	s, err := jtp.NewSim(jtp.SimConfig{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenFlow(jtp.FlowConfig{Src: 0, Dst: 2, Protocol: "quic"}); !errors.Is(err, jtp.ErrBadConfig) {
		t.Errorf("OpenFlow(Protocol: quic): got %v, want ErrBadConfig", err)
	}
}

// TestExclusiveProtocolsDoNotMix pins the conflict rule: "jtp" and
// "jnc" both install the full iJTP plugin set, which acts on every JTP
// packet — attaching both would double-charge energy and duplicate
// cache recoveries. The second family member must be refused; an
// unrelated baseline on the same Sim stays fine.
func TestExclusiveProtocolsDoNotMix(t *testing.T) {
	s, err := jtp.NewSim(jtp.SimConfig{Nodes: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenFlow(jtp.FlowConfig{Src: 0, Dst: 3, TotalPackets: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenFlow(jtp.FlowConfig{Src: 3, Dst: 0, Protocol: "jnc"}); !errors.Is(err, jtp.ErrBadConfig) {
		t.Errorf("jnc flow on a jtp Sim: got %v, want ErrBadConfig", err)
	}
	if _, err := s.OpenFlow(jtp.FlowConfig{Src: 3, Dst: 0, Protocol: "tcp", TotalPackets: 10}); err != nil {
		t.Errorf("tcp flow on a jtp Sim: %v, want success", err)
	}
}

// TestProtocolsListsBuiltins checks the public enumeration is exactly
// the paper's comparison set.
func TestProtocolsListsBuiltins(t *testing.T) {
	if got, want := jtp.Protocols(), []string{"atp", "jnc", "jtp", "tcp"}; !slices.Equal(got, want) {
		t.Errorf("Protocols() = %v, want %v", got, want)
	}
}
