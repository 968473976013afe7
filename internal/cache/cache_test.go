package cache

import (
	"testing"
	"testing/quick"

	"github.com/javelen/jtp/internal/packet"
)

func pkt(flow packet.FlowID, seq uint32) *packet.Packet {
	return &packet.Packet{
		Type: packet.Data, Src: 1, Dst: 2, Flow: flow, Seq: seq, PayloadLen: 100,
	}
}

func TestInsertLookup(t *testing.T) {
	c := New(10)
	p := pkt(1, 5)
	c.Insert(p)
	got, ok := c.Lookup(KeyOf(p))
	if !ok {
		t.Fatal("lookup miss after insert")
	}
	if got.Seq != 5 || got.Flow != 1 {
		t.Fatalf("wrong packet: %+v", got)
	}
	// Returned packet is a copy.
	got.Seq = 99
	again, _ := c.Lookup(KeyOf(p))
	if again.Seq != 5 {
		t.Fatal("Lookup returned shared state")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(3)
	for seq := uint32(0); seq < 3; seq++ {
		c.Insert(pkt(1, seq))
	}
	// Touch seq 0 so seq 1 becomes the oldest.
	if _, ok := c.Lookup(KeyOf(pkt(1, 0))); !ok {
		t.Fatal("miss")
	}
	c.Insert(pkt(1, 3)) // evicts seq 1
	if _, ok := c.Lookup(KeyOf(pkt(1, 1))); ok {
		t.Fatal("least recently manipulated entry survived")
	}
	for _, seq := range []uint32{0, 2, 3} {
		if !c.Contains(KeyOf(pkt(1, seq))) {
			t.Fatalf("seq %d evicted wrongly", seq)
		}
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
}

func TestReinsertRefreshes(t *testing.T) {
	c := New(2)
	c.Insert(pkt(1, 0))
	c.Insert(pkt(1, 1))
	c.Insert(pkt(1, 0)) // refresh 0; now 1 is oldest
	c.Insert(pkt(1, 2)) // evicts 1
	if c.Contains(KeyOf(pkt(1, 1))) {
		t.Fatal("refreshed entry not moved to front")
	}
	if c.Stats().Updates != 1 {
		t.Fatalf("updates = %d", c.Stats().Updates)
	}
}

func TestZeroCapacityDisabled(t *testing.T) {
	c := New(0)
	c.Insert(pkt(1, 1))
	if c.Len() != 0 {
		t.Fatal("zero-capacity cache stored a packet")
	}
	if _, ok := c.Lookup(KeyOf(pkt(1, 1))); ok {
		t.Fatal("zero-capacity cache hit")
	}
}

func TestFlowIsolation(t *testing.T) {
	c := New(10)
	c.Insert(pkt(1, 7))
	if _, ok := c.Lookup(Key{Src: 1, Dst: 2, Flow: 2, Seq: 7}); ok {
		t.Fatal("flow id not part of the key")
	}
	if _, ok := c.Lookup(Key{Src: 9, Dst: 2, Flow: 1, Seq: 7}); ok {
		t.Fatal("src not part of the key")
	}
}

func TestCapacityInvariantProperty(t *testing.T) {
	prop := func(capRaw uint8, ops []uint16) bool {
		capacity := int(capRaw%20) + 1
		c := New(capacity)
		for _, op := range ops {
			seq := uint32(op % 64)
			switch op % 3 {
			case 0, 1:
				c.Insert(pkt(1, seq))
			case 2:
				c.Lookup(KeyOf(pkt(1, seq)))
			}
			if c.Len() > capacity {
				return false
			}
		}
		st := c.Stats()
		return int(st.Inserts)-int(st.Evictions) == c.Len()-countRemoved(c)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// countRemoved is zero here (the property uses no Remove calls); it keeps
// the accounting identity explicit.
func countRemoved(*Cache) int { return 0 }

func TestHitMissStats(t *testing.T) {
	c := New(4)
	c.Insert(pkt(1, 1))
	c.Lookup(KeyOf(pkt(1, 1)))
	c.Lookup(KeyOf(pkt(1, 2)))
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Fatalf("stats: %+v", st)
	}
}
