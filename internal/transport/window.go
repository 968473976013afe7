package transport

import (
	"iter"

	"github.com/javelen/jtp/internal/packet"
)

// Ring holds one value per index over a sliding span [Lo, Lo+Len) of a
// uint32 index space: sequence numbers, or a queue's running count. It
// is a power-of-two circular buffer that grows on demand and is reused
// as the span slides, so per-flow state follows the span, not the
// number of indices ever used, and steady-state use allocates nothing.
// Slots outside the span read as absent; slots entering it are zero.
type Ring[T any] struct {
	lo   uint32
	n    int
	head int // buf index of Lo's slot
	buf  []T
}

// Lo is the first index of the span.
func (r *Ring[T]) Lo() uint32 { return r.lo }

// Len is the length of the span.
func (r *Ring[T]) Len() int { return r.n }

// At returns i's slot, or nil when i is outside the span.
func (r *Ring[T]) At(i uint32) *T {
	if i < r.lo || int(i-r.lo) >= r.n {
		return nil
	}
	return &r.buf[(r.head+int(i-r.lo))&(len(r.buf)-1)]
}

// Extend grows the span to cover i, which must not be below Lo, and
// returns i's slot.
func (r *Ring[T]) Extend(i uint32) *T {
	if i < r.lo {
		panic("transport: Ring.Extend below Lo")
	}
	need := int(i-r.lo) + 1
	if need > len(r.buf) {
		size := max(16, len(r.buf))
		for size < need {
			size *= 2
		}
		buf := make([]T, size)
		for k := 0; k < r.n; k++ {
			buf[k] = r.buf[(r.head+k)&(len(r.buf)-1)]
		}
		r.buf, r.head = buf, 0
	}
	r.n = max(r.n, need)
	return &r.buf[(r.head+need-1)&(len(r.buf)-1)]
}

// Advance slides Lo up to i, zeroing the slots it drops.
func (r *Ring[T]) Advance(i uint32) {
	if i <= r.lo {
		return
	}
	var zero T
	for d := i - r.lo; d > 0 && r.n > 0; d-- {
		r.buf[r.head] = zero
		r.head = (r.head + 1) & (len(r.buf) - 1)
		r.n--
	}
	r.lo = i
}

// Window is a set of sequence numbers shaped like a receiver's view of
// a flow: every number below the lower edge Lo is a member, and above
// it a ring bitset holds the members up to the highest one. Memory thus
// follows the span from Lo to the highest member, never the count of
// sequence numbers seen. The zero value is the empty set with Lo 0.
type Window struct {
	lo    uint32
	words Ring[uint64] // word k holds sequence numbers [64k, 64k+64)
}

// Lo is the lower edge: the first sequence number not known a member.
func (w *Window) Lo() uint32 { return w.lo }

// Has reports whether q is a member.
func (w *Window) Has(q uint32) bool {
	if q < w.lo {
		return true
	}
	p := w.words.At(q / 64)
	return p != nil && *p&(1<<(q%64)) != 0
}

// Add makes q a member.
func (w *Window) Add(q uint32) {
	if q >= w.lo {
		*w.words.Extend(q / 64) |= 1 << (q % 64)
	}
}

// Slide advances Lo past the members at it, as a cumulative ACK
// advances past the in-order arrivals, and returns the new Lo.
func (w *Window) Slide() uint32 {
	for w.Has(w.lo) {
		w.lo++
	}
	w.words.Advance(w.lo / 64)
	return w.lo
}

// Runs yields, in ascending order, the maximal runs [first, last] of
// members (or, when members is false, of non-members) within [from, to).
func (w *Window) Runs(from, to uint32, members bool) iter.Seq2[uint32, uint32] {
	return func(yield func(first, last uint32) bool) {
		for q := from; q < to; q++ {
			if w.Has(q) != members {
				continue
			}
			first := q
			for q+1 < to && w.Has(q+1) == members {
				q++
			}
			if !yield(first, q) {
				return
			}
		}
	}
}

// AppendSeq adds q to ascending ranges that all lie below it: it
// extends the last range when q follows it directly, and otherwise
// opens a new range only while rs holds fewer than limit (feedback
// carries a bounded number of ranges; later ones are dropped whole).
func AppendSeq(rs []packet.SeqRange, q uint32, limit int) []packet.SeqRange {
	if n := len(rs); n > 0 && rs[n-1].Last+1 == q {
		rs[n-1].Last = q
	} else if n < limit {
		rs = append(rs, packet.SeqRange{First: q, Last: q})
	}
	return rs
}

// RetxQueue is a source's end-to-end retransmission queue: sequence
// numbers in the order they were requested, each queued at most once.
// The zero value is empty and ready to use.
type RetxQueue struct {
	fifo   Ring[uint32] // indexed by a running push count
	queued Ring[bool]   // by sequence number; Lo follows the cumulative ACK
}

// Len counts queued entries, including any acknowledged meanwhile.
func (rq *RetxQueue) Len() int { return rq.fifo.Len() }

// Push queues q unless it is already queued. q must not be below the
// cumulative ACK last passed to Pop.
func (rq *RetxQueue) Push(q uint32) {
	if in := rq.queued.Extend(q); !*in {
		*in = true
		*rq.fifo.Extend(rq.fifo.Lo() + uint32(rq.fifo.Len())) = q
	}
}

// PushRanges pushes, in order, every sequence number of rs within
// [lo, hi).
func (rq *RetxQueue) PushRanges(rs []packet.SeqRange, lo, hi uint32) {
	for _, r := range rs {
		for q := max(r.First, lo); q <= r.Last && q < hi; q++ {
			rq.Push(q)
		}
	}
}

// Pop dequeues the oldest entry at or above cum, discarding older ones
// acknowledged while they waited.
func (rq *RetxQueue) Pop(cum uint32) (uint32, bool) {
	rq.queued.Advance(cum)
	for rq.fifo.Len() > 0 {
		q := *rq.fifo.At(rq.fifo.Lo())
		rq.fifo.Advance(rq.fifo.Lo() + 1)
		if q >= cum {
			*rq.queued.At(q) = false
			return q, true
		}
	}
	return 0, false
}
