// Package cache implements the in-network packet cache of paper §4:
// every intermediate node temporarily stores traversing DATA packets so a
// lost packet can be recovered "as close to the receiver as possible"
// instead of from the source. The paper's eviction policy is Least
// Recently Used — "the packet evicted from the cache is the least
// recently manipulated" — where both insertion and a SNACK-triggered
// lookup count as manipulation.
//
// The paper leaves "a detailed study of different cache replacement
// strategies" to future work (§4) and names "energy-awareness in
// cache/memory management" as ongoing work (§8); this package implements
// those extensions as alternative policies: FIFO, Random, and
// EnergyAware (keep the packets the network has invested the most energy
// in). The ablation benchmarks compare them.
package cache

import (
	"math/rand"

	"github.com/javelen/jtp/internal/packet"
)

// Policy selects the replacement strategy.
type Policy int

const (
	// LRU evicts the least recently manipulated entry (the paper's
	// policy, §4).
	LRU Policy = iota
	// FIFO evicts the oldest inserted entry regardless of use.
	FIFO
	// Random evicts a uniformly random entry.
	Random
	// EnergyAware evicts the entry whose packet has the least
	// accumulated energy-used: the cheapest for the network to deliver
	// again from the source (§8 future work).
	EnergyAware
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	case EnergyAware:
		return "energy-aware"
	}
	return "lru"
}

// Key identifies a cached packet: the flow's endpoints and id plus the
// sequence number. Endpoints are included so flow-id collisions between
// node pairs cannot alias.
type Key struct {
	Src  packet.NodeID
	Dst  packet.NodeID
	Flow packet.FlowID
	Seq  uint32
}

// KeyOf builds the cache key for a DATA packet.
func KeyOf(p *packet.Packet) Key {
	return Key{Src: p.Src, Dst: p.Dst, Flow: p.Flow, Seq: p.Seq}
}

// Stats counts cache activity for the experiment harness (Fig 6, Fig 11c).
type Stats struct {
	Inserts   uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Updates   uint64 // re-insert of an already-cached key
}

// Cache is a fixed-capacity packet store. The zero value is unusable;
// construct with New or NewWithPolicy. Capacity 0 disables the cache
// entirely (the JNC configuration of §4.1).
//
// Storage is a slab of doubly-linked entries with a free-list (front =
// most recently manipulated/inserted, exactly the order the previous
// container/list implementation maintained). At capacity, every insert
// recycles the evicted slot — and, when a packet pool is attached, the
// evicted clone — so a warm cache inserts with zero allocations.
type Cache struct {
	capacity int
	policy   Policy
	entries  []entry // slab; list links are slab indices
	freeSlot []int32
	head     int32 // most recently manipulated, -1 when empty
	tail     int32 // least recently manipulated, -1 when empty
	items    map[Key]int32
	stats    Stats
	seed     int64        // Random policy only; rng is built on first draw
	rng      *rand.Rand   // Random policy only
	pool     *packet.Pool // optional clone free-list (nil = heap clones)
}

type entry struct {
	key        Key
	pkt        *packet.Packet
	prev, next int32 // -1 terminates
}

// New returns an LRU cache holding at most capacity packets.
func New(capacity int) *Cache { return NewWithPolicy(capacity, LRU, 1) }

// NewWithPolicy returns a cache with the given replacement policy. The
// seed drives the Random policy deterministically (pass the node id).
// A zero-capacity cache stores nothing, so it gets no index.
func NewWithPolicy(capacity int, policy Policy, seed int64) *Cache {
	c := &Cache{capacity: capacity, policy: policy, head: -1, tail: -1, seed: seed}
	if capacity > 0 {
		c.items = make(map[Key]int32)
	}
	return c
}

// Clear empties the cache and zeroes its accounting, as NewWithPolicy
// left it: stored clones go back to the attached pool, the slab and
// index keep their storage, and a Random policy's stream restarts from
// its seed.
func (c *Cache) Clear() {
	for i := c.head; i >= 0; i = c.entries[i].next {
		c.pool.Put(c.entries[i].pkt)
	}
	clear(c.entries)
	c.entries, c.freeSlot = c.entries[:0], c.freeSlot[:0]
	c.head, c.tail = -1, -1
	clear(c.items)
	c.stats = Stats{}
	if c.rng != nil {
		c.rng.Seed(c.seed)
	}
}

// SetPool attaches a packet free-list: cached clones are drawn from and
// recycled into it. The experiment harness passes the network's pool.
func (c *Cache) SetPool(p *packet.Pool) { c.pool = p }

// clone copies p for storage, through the pool when one is attached.
func (c *Cache) clone(p *packet.Packet) *packet.Packet {
	if c.pool == nil {
		return p.Clone()
	}
	q := c.pool.Get()
	p.CloneInto(q, c.pool)
	return q
}

// ---- intrusive list over the slab ------------------------------------

// alloc takes a slot from the free-list or grows the slab (bounded by
// capacity, so growth stops once the cache has warmed).
func (c *Cache) alloc() int32 {
	if n := len(c.freeSlot); n > 0 {
		i := c.freeSlot[n-1]
		c.freeSlot = c.freeSlot[:n-1]
		return i
	}
	c.entries = append(c.entries, entry{})
	return int32(len(c.entries) - 1)
}

// unlink detaches slot i from the list without freeing it.
func (c *Cache) unlink(i int32) {
	e := &c.entries[i]
	if e.prev >= 0 {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

// pushFront links slot i at the most-recent end.
func (c *Cache) pushFront(i int32) {
	e := &c.entries[i]
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.entries[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

// moveToFront refreshes slot i's recency.
func (c *Cache) moveToFront(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}

// removeSlot unlinks slot i, recycles its packet clone and returns the
// slot to the free-list.
func (c *Cache) removeSlot(i int32) {
	c.unlink(i)
	e := &c.entries[i]
	delete(c.items, e.key)
	if c.pool != nil {
		c.pool.Put(e.pkt)
	}
	e.pkt = nil
	c.freeSlot = append(c.freeSlot, i)
}

// Policy returns the replacement policy in use.
func (c *Cache) Policy() Policy { return c.policy }

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// Insert stores a copy of the packet, evicting the least recently
// manipulated entry if full. Re-inserting an existing key refreshes its
// recency and contents. Inserting into a zero-capacity cache is a no-op.
func (c *Cache) Insert(p *packet.Packet) {
	if c.capacity <= 0 {
		return
	}
	k := KeyOf(p)
	if i, ok := c.items[k]; ok {
		e := &c.entries[i]
		if c.pool != nil {
			c.pool.Put(e.pkt)
		}
		e.pkt = c.clone(p)
		if c.policy == LRU {
			c.moveToFront(i)
		}
		c.stats.Updates++
		return
	}
	for len(c.items) >= c.capacity {
		c.evict()
	}
	i := c.alloc()
	c.entries[i].key = k
	c.entries[i].pkt = c.clone(p)
	c.pushFront(i)
	c.items[k] = i
	c.stats.Inserts++
}

// Lookup returns a copy of the cached packet for the key. Under LRU it
// refreshes the entry's recency ("least recently manipulated") — a
// packet just served for one SNACK is likely to be requested again if
// the retransmission is lost.
func (c *Cache) Lookup(k Key) (*packet.Packet, bool) {
	i, ok := c.items[k]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	if c.policy == LRU {
		c.moveToFront(i)
	}
	c.stats.Hits++
	return c.clone(c.entries[i].pkt), true
}

// evict removes one entry according to the policy.
func (c *Cache) evict() {
	victim := int32(-1)
	switch c.policy {
	case Random:
		// The source is seeded lazily: rand.NewSource runs the full
		// 607-word LFG warm-up, which dominated large-network setup when
		// every per-node cache paid it eagerly — only the Random policy
		// ever draws, and the stream is identical either way.
		if c.rng == nil {
			c.rng = rand.New(rand.NewSource(c.seed))
		}
		idx := c.rng.Intn(len(c.items))
		victim = c.head
		for i := 0; i < idx; i++ {
			victim = c.entries[victim].next
		}
	case EnergyAware:
		// Evict the cheapest-to-replace packet (least energy invested);
		// front-to-back scan, first minimum wins, as before.
		min := 0.0
		for i := c.head; i >= 0; i = c.entries[i].next {
			used := c.entries[i].pkt.EnergyUsed
			if victim < 0 || used < min {
				victim, min = i, used
			}
		}
	default: // LRU and FIFO both evict the back of the list
		victim = c.tail
	}
	if victim < 0 {
		return
	}
	c.removeSlot(victim)
	c.stats.Evictions++
}
