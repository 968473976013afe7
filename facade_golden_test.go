package jtp

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates testdata/golden/facade.txt instead of comparing:
//
//	go test . -run TestFacadeGolden -update
var update = flag.Bool("update", false, "rewrite the facade golden file under testdata/golden")

// facadeCase is one public-API session: build a Sim, script it, run it.
type facadeCase struct {
	name string
	cfg  SimConfig
	// run opens flows, schedules events and advances time.
	run func(t *testing.T, s *Sim)
}

// openFlow opens a flow or fails the test.
func openFlow(t *testing.T, s *Sim, fc FlowConfig) *Flow {
	t.Helper()
	f, err := s.OpenFlow(fc)
	if err != nil {
		t.Fatalf("OpenFlow(%+v): %v", fc, err)
	}
	return f
}

// transfer opens one fixed-size flow and runs until it completes.
func transfer(src, dst, packets int) func(*testing.T, *Sim) {
	return func(t *testing.T, s *Sim) {
		openFlow(t, s, FlowConfig{Src: src, Dst: dst, TotalPackets: packets})
		s.RunUntilDone(7200)
	}
}

// facadeCases covers every branch of SimConfig's translation into a
// network: layouts, mobility, channel profile, cache and MAC overrides,
// mixed protocols on one substrate, deadline streams, scripted failures
// and tracing.
func facadeCases() []facadeCase {
	cases := []facadeCase{
		{"linear", SimConfig{Nodes: 6, Spacing: 70, Seed: 11}, transfer(0, 5, 60)},
		{"random", SimConfig{Nodes: 10, Topology: RandomTopology, Seed: 12}, transfer(0, 9, 40)},
		{"positions", SimConfig{
			Positions: []Position{{X: 100, Y: 100}, {X: 180, Y: 100}, {X: 100, Y: 180}, {X: 20, Y: 100}, {X: 100, Y: 20}},
			Seed:      7,
		}, transfer(1, 3, 30)},
		{"mobility", SimConfig{Nodes: 10, Topology: RandomTopology, MobilitySpeed: 2, Seed: 3}, func(t *testing.T, s *Sim) {
			openFlow(t, s, FlowConfig{Src: 0, Dst: 9})
			s.Run(400)
		}},
		{"stable", SimConfig{Nodes: 5, Channel: StableChannel, Seed: 4}, transfer(0, 4, 60)},
		{"nocache-maxattempts", SimConfig{Nodes: 6, Seed: 5, CacheCapacity: -1, MaxAttempts: 3}, transfer(0, 5, 80)},
		{"atp-then-jtp-tcp", SimConfig{Nodes: 5, Seed: 8, Protocol: "atp"}, func(t *testing.T, s *Sim) {
			openFlow(t, s, FlowConfig{Src: 0, Dst: 4, TotalPackets: 40})
			s.Run(50)
			openFlow(t, s, FlowConfig{Src: 4, Dst: 0, TotalPackets: 30, StartAt: 5, Protocol: "jtp"})
			openFlow(t, s, FlowConfig{Src: 1, Dst: 3, TotalPackets: 30, Protocol: "tcp"})
			s.RunUntilDone(5000)
		}},
		{"deadline-stream", SimConfig{Nodes: 6, Seed: 16}, func(t *testing.T, s *Sim) {
			openFlow(t, s, FlowConfig{Src: 0, Dst: 5, LossTolerance: 0.2, DisableRetransmissions: true, DeadlineSeconds: 5})
			s.Run(300)
		}},
		{"fail-revive-trace", SimConfig{Nodes: 4, Channel: StableChannel, Seed: 14}, func(t *testing.T, s *Sim) {
			s.EnableTrace(256)
			openFlow(t, s, FlowConfig{Src: 0, Dst: 3, TotalPackets: 120})
			s.At(20, func() { _ = s.FailNode(1) })
			s.At(150, func() { _ = s.ReviveNode(1) })
			s.RunUntilDone(7200)
		}},
	}
	for _, pol := range []CachePolicy{CacheLRU, CacheFIFO, CacheRandom, CacheEnergyAware} {
		cases = append(cases, facadeCase{
			fmt.Sprintf("policy-%d", pol),
			SimConfig{Nodes: 5, Seed: 17, CacheCapacity: 16, CachePolicy: pol},
			transfer(0, 4, 80),
		})
	}
	return cases
}

// writeFacadeRecord prints every observable of a finished session.
// Floats are printed as %x so the record pins exact bits; each flow's
// reception series is folded into one FNV hash of its exact samples.
func writeFacadeRecord(b *bytes.Buffer, name string, s *Sim) {
	fmt.Fprintf(b, "== %s\n", name)
	fmt.Fprintf(b, "now %x energy %x perBit %x cacheHits %d queueDrops %d\n",
		s.Now(), s.TotalEnergy(), s.EnergyPerBit(), s.CacheHits(), s.QueueDrops())
	fmt.Fprintf(b, "perNode %x\n", s.PerNodeEnergy())
	if sum := s.TraceSummary(); sum != "" {
		fmt.Fprintf(b, "trace %q\n", sum)
	}
	for _, f := range s.Flows() {
		r := f.Stats()
		h := fnv.New64a()
		if r.Reception != nil {
			fmt.Fprintf(h, "%x", r.Reception.Samples)
		}
		fmt.Fprintf(b, "flow %d %s %d->%d start %x done %v at %x sent %d srcRtx %d cacheRec %d acks %d uniq %d bytes %d dup %d rate %x rx %016x\n",
			r.Flow, r.Proto, r.Src, r.Dst, r.StartAt, r.Completed, r.CompletedAt,
			r.DataSent, r.SourceRetransmissions, r.CacheRecovered, r.AcksSent,
			r.UniqueDelivered, r.DeliveredBytes, r.Duplicates, f.Rate(), h.Sum64())
	}
}

// TestFacadeGolden pins the public API's simulations bit for bit: each
// case's energies, counters, trace summary and per-flow records must
// match testdata/golden/facade.txt exactly.
func TestFacadeGolden(t *testing.T) {
	var b bytes.Buffer
	for _, c := range facadeCases() {
		s, err := NewSim(c.cfg)
		if err != nil {
			t.Fatalf("%s: NewSim: %v", c.name, err)
		}
		c.run(t, s)
		writeFacadeRecord(&b, c.name, s)
	}
	path := filepath.Join("testdata", "golden", "facade.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("facade output drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, b.Bytes(), want)
	}
}
