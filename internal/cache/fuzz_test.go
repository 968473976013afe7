package cache

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/javelen/jtp/internal/packet"
)

// cacheModel is the cache written the obvious way: a map of contents
// and a list of keys, front = most recently manipulated, with each
// policy's victim chosen by the rule the Cache documents.
type cacheModel struct {
	capacity int
	policy   Policy
	seed     int64
	rng      *rand.Rand
	energy   map[Key]float64 // the cached packet's EnergyUsed
	order    []Key
	stats    Stats
}

func (m *cacheModel) toFront(k Key) {
	i := slices.Index(m.order, k)
	m.order = slices.Insert(slices.Delete(m.order, i, i+1), 0, k)
}

func (m *cacheModel) insert(k Key, energy float64) {
	if m.capacity <= 0 {
		return
	}
	if _, ok := m.energy[k]; ok {
		m.energy[k] = energy
		if m.policy == LRU {
			m.toFront(k)
		}
		m.stats.Updates++
		return
	}
	for len(m.order) >= m.capacity {
		m.evict()
	}
	m.energy[k] = energy
	m.order = slices.Insert(m.order, 0, k)
	m.stats.Inserts++
}

func (m *cacheModel) evict() {
	victim := len(m.order) - 1
	switch m.policy {
	case Random:
		if m.rng == nil {
			m.rng = rand.New(rand.NewSource(m.seed))
		}
		victim = m.rng.Intn(len(m.order))
	case EnergyAware:
		victim = 0
		for i, k := range m.order {
			if m.energy[k] < m.energy[m.order[victim]] {
				victim = i
			}
		}
	}
	delete(m.energy, m.order[victim])
	m.order = slices.Delete(m.order, victim, victim+1)
	m.stats.Evictions++
}

func (m *cacheModel) lookup(k Key) (float64, bool) {
	e, ok := m.energy[k]
	if !ok {
		m.stats.Misses++
		return 0, false
	}
	if m.policy == LRU {
		m.toFront(k)
	}
	m.stats.Hits++
	return e, true
}

func (m *cacheModel) clear() {
	clear(m.energy)
	m.order = m.order[:0]
	m.stats = Stats{}
	m.rng = nil
}

// listOrder reads the cache's recency list front to back.
func listOrder(c *Cache) []Key {
	var keys []Key
	for i := c.head; i >= 0; i = c.entries[i].next {
		keys = append(keys, c.entries[i].key)
	}
	return keys
}

// FuzzCacheMatchesModel drives the cache and its model with one stream
// of inserts, lookups and clears, and requires the same lookup results,
// counters and recency order (hence eviction order) after every step.
// Keys are drawn from few endpoints, flows and sequence numbers, so one
// sequence number recurs under several endpoint/flow triples; a quarter
// of the keys are searched out to land in the table's last cells, so
// probe runs wrap its end and deletions shift across it.
func FuzzCacheMatchesModel(f *testing.F) {
	f.Add(uint8(0), uint8(3), false, []byte{0, 1, 2, 0, 1, 2, 4, 5, 6, 7, 8, 9, 3, 1, 2})
	f.Add(uint8(1), uint8(7), true, []byte{8, 0, 16, 9, 24, 18, 32, 27, 40, 36, 48, 45, 5, 0})
	f.Add(uint8(2), uint8(39), true, []byte{200, 3, 201, 4, 202, 5, 203, 6, 3, 4, 17, 8, 255, 9})
	f.Add(uint8(3), uint8(12), false, []byte{12, 99, 44, 7, 76, 33, 108, 1, 140, 2, 63, 5, 2, 1})
	f.Fuzz(func(t *testing.T, polRaw, capRaw uint8, pooled bool, ops []byte) {
		pol := Policy(polRaw % 4)
		capacity := int(capRaw%40) + 1
		seed := int64(capRaw)
		c := NewWithPolicy(capacity, pol, seed)
		if pooled {
			c.SetPool(new(packet.Pool))
		}
		m := &cacheModel{capacity: capacity, policy: pol, seed: seed, energy: map[Key]float64{}}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			k := Key{
				Src:  packet.NodeID(arg & 3),
				Dst:  packet.NodeID(arg >> 2 & 3),
				Flow: packet.FlowID(arg >> 4 & 1),
				Seq:  uint32(op >> 3),
			}
			if op&4 != 0 && len(c.index) > 0 {
				// Search upward for a key whose home is one of the last
				// two cells of the current table.
				for c.slot(k) < len(c.index)-2 {
					k.Seq++
				}
			}
			switch op % 4 {
			case 0, 1:
				energy := float64(arg % 7)
				c.Insert(&packet.Packet{Type: packet.Data, Src: k.Src, Dst: k.Dst, Flow: k.Flow, Seq: k.Seq, EnergyUsed: energy})
				m.insert(k, energy)
			case 2:
				got, ok := c.Lookup(k)
				want, wantOK := m.lookup(k)
				if ok != wantOK {
					t.Fatalf("op %d: Lookup(%+v) hit = %v, model %v", i, k, ok, wantOK)
				}
				if ok && (KeyOf(got) != k || got.EnergyUsed != want) {
					t.Fatalf("op %d: Lookup(%+v) = key %+v energy %v, model energy %v", i, k, KeyOf(got), got.EnergyUsed, want)
				}
			case 3:
				if arg < 16 {
					c.Clear()
					m.clear()
				}
			}
			if c.Stats() != m.stats {
				t.Fatalf("op %d: stats %+v, model %+v", i, c.Stats(), m.stats)
			}
			if got := listOrder(c); !slices.Equal(got, m.order) {
				t.Fatalf("op %d: order %v, model %v", i, got, m.order)
			}
			if c.live != len(m.order) {
				t.Fatalf("op %d: %d indexed, model holds %d", i, c.live, len(m.order))
			}
			for _, k := range m.order {
				if j := c.find(k); j < 0 || c.entries[j].key != k {
					t.Fatalf("op %d: %+v unreachable in the index", i, k)
				}
			}
		}
	})
}
