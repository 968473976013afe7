package cache

import (
	"testing"

	"github.com/javelen/jtp/internal/packet"
)

func energyPkt(seq uint32, used float64) *packet.Packet {
	p := pkt(1, seq)
	p.EnergyUsed = used
	return p
}

func TestFIFOEvictsInsertionOrder(t *testing.T) {
	c := NewWithPolicy(3, FIFO, 1)
	for seq := uint32(0); seq < 3; seq++ {
		c.Insert(pkt(1, seq))
	}
	// Touch seq 0; FIFO must ignore recency.
	c.Lookup(KeyOf(pkt(1, 0)))
	c.Insert(pkt(1, 3)) // evicts 0, the oldest inserted
	if held(c, 0) {
		t.Fatal("FIFO kept the oldest insertion after a lookup")
	}
	if !held(c, 1) {
		t.Fatal("FIFO evicted the wrong entry")
	}
}

func TestEnergyAwareKeepsExpensivePackets(t *testing.T) {
	c := NewWithPolicy(3, EnergyAware, 1)
	c.Insert(energyPkt(0, 0.030)) // expensive: 9 hops of effort
	c.Insert(energyPkt(1, 0.001)) // cheap
	c.Insert(energyPkt(2, 0.015))
	c.Insert(energyPkt(3, 0.020)) // evicts seq 1 (least invested)
	if held(c, 1) {
		t.Fatal("energy-aware policy evicted an expensive packet over a cheap one")
	}
	for _, seq := range []uint32{0, 2, 3} {
		if !held(c, seq) {
			t.Fatalf("seq %d wrongly evicted", seq)
		}
	}
}

func TestRandomPolicyDeterministicPerSeed(t *testing.T) {
	evictedAfter := func(seed int64) []bool {
		c := NewWithPolicy(3, Random, seed)
		for seq := uint32(0); seq < 3; seq++ {
			c.Insert(pkt(1, seq))
		}
		c.Insert(pkt(1, 3))
		out := make([]bool, 4)
		for seq := uint32(0); seq < 4; seq++ {
			out[seq] = held(c, seq)
		}
		return out
	}
	a := evictedAfter(7)
	b := evictedAfter(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random policy not deterministic for a fixed seed")
		}
	}
	// Exactly three survive, and the newcomer is among them.
	count := 0
	for _, ok := range a {
		if ok {
			count++
		}
	}
	if count != 3 || !a[3] {
		t.Fatalf("random eviction kept %d, newcomer present=%v", count, a[3])
	}
}

func TestRandomPolicySpreadsEvictions(t *testing.T) {
	// Over many seeds, different victims should be chosen.
	victims := map[uint32]bool{}
	for seed := int64(0); seed < 20; seed++ {
		c := NewWithPolicy(3, Random, seed)
		for seq := uint32(0); seq < 3; seq++ {
			c.Insert(pkt(1, seq))
		}
		c.Insert(pkt(1, 3))
		for seq := uint32(0); seq < 3; seq++ {
			if !held(c, seq) {
				victims[seq] = true
			}
		}
	}
	if len(victims) < 2 {
		t.Fatalf("random policy always evicts the same entry: %v", victims)
	}
}

func TestPolicyNames(t *testing.T) {
	for p, want := range map[Policy]string{
		LRU: "lru", FIFO: "fifo", Random: "random", EnergyAware: "energy-aware",
	} {
		if p.String() != want {
			t.Fatalf("%d name = %q", p, p.String())
		}
	}
	c := NewWithPolicy(4, FIFO, 1)
	if c.Policy() != FIFO {
		t.Fatal("policy accessor")
	}
}

func TestPoliciesRespectCapacity(t *testing.T) {
	for _, pol := range []Policy{LRU, FIFO, Random, EnergyAware} {
		c := NewWithPolicy(5, pol, 3)
		for seq := uint32(0); seq < 100; seq++ {
			c.Insert(energyPkt(seq, float64(seq)*1e-4))
			if c.live > 5 {
				t.Fatalf("%v exceeded capacity: %d", pol, c.live)
			}
		}
		if c.live != 5 {
			t.Fatalf("%v not full after 100 inserts: %d", pol, c.live)
		}
	}
}
