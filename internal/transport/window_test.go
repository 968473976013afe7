package transport

import (
	"slices"
	"testing"

	"github.com/javelen/jtp/internal/packet"
)

// windowModel is the map-based bookkeeping Window replaces: members
// above a lower edge, everything below it a member.
type windowModel struct {
	lo uint32
	in map[uint32]bool
}

func (m *windowModel) has(q uint32) bool { return q < m.lo || m.in[q] }

func (m *windowModel) slide() uint32 {
	for m.has(m.lo) {
		delete(m.in, m.lo)
		m.lo++
	}
	return m.lo
}

// queueModel is the slice-and-map retransmission queue RetxQueue
// replaces.
type queueModel struct {
	fifo   []uint32
	queued map[uint32]bool
}

func (m *queueModel) push(q uint32) {
	if !m.queued[q] {
		m.fifo = append(m.fifo, q)
		m.queued[q] = true
	}
}

func (m *queueModel) pop(cum uint32) (uint32, bool) {
	for len(m.fifo) > 0 {
		q := m.fifo[0]
		m.fifo = m.fifo[1:]
		delete(m.queued, q)
		if q >= cum {
			return q, true
		}
	}
	return 0, false
}

// collect gathers an iterator's runs as ranges.
func collect(w *Window, from, to uint32, members bool) []packet.SeqRange {
	var rs []packet.SeqRange
	for first, last := range w.Runs(from, to, members) {
		rs = append(rs, packet.SeqRange{First: first, Last: last})
	}
	return rs
}

// seqRuns is the model of Runs: ascending sequence numbers compressed
// into maximal inclusive ranges.
func seqRuns(seqs []uint32) []packet.SeqRange {
	var out []packet.SeqRange
	for _, s := range seqs {
		if n := len(out); n > 0 && out[n-1].Last+1 == s {
			out[n-1].Last = s
		} else {
			out = append(out, packet.SeqRange{First: s, Last: s})
		}
	}
	return out
}

// FuzzWindow drives a Window and a RetxQueue with the same operations
// as their map-based models and requires identical answers: membership,
// the sliding lower edge, ordered runs (against seqRuns),
// AppendSeq's capped ranges, and the queue's order and deduplication.
// Operands reach a few thousand above the lower edge, so the rings wrap,
// grow and shed words.
func FuzzWindow(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 2, 0, 0, 1, 2, 0, 3, 9, 5, 4, 6, 0})
	f.Add([]byte{16, 200, 48, 255, 0, 0, 2, 0, 3, 130, 11, 70, 5, 70, 5, 2, 6, 0, 6, 1})
	f.Add([]byte{240, 255, 0, 64, 0, 63, 0, 65, 0, 0, 2, 0, 3, 10, 4, 3, 7, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var w Window
		wm := windowModel{in: map[uint32]bool{}}
		var rq RetxQueue
		qm := queueModel{queued: map[uint32]bool{}}
		var cum uint32 // the queue's cumulative ACK: only ever rises
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], uint32(ops[i+1])
			q := wm.lo + arg*(uint32(op>>4)+1)
			switch op % 8 {
			case 0, 1:
				w.Add(q)
				if q >= wm.lo {
					wm.in[q] = true
				}
			case 2:
				if got, want := w.Slide(), wm.slide(); got != want {
					t.Fatalf("op %d: Slide = %d, model %d", i, got, want)
				}
			case 3, 4:
				from := wm.lo - min(wm.lo, arg%8)
				to := from + arg
				members := op%8 == 4
				var seqs []uint32
				for s := from; s < to; s++ {
					if wm.has(s) == members {
						seqs = append(seqs, s)
					}
				}
				want := seqRuns(seqs)
				if got := collect(&w, from, to, members); !slices.Equal(got, want) {
					t.Fatalf("op %d: Runs(%d, %d, %v) = %v, model %v", i, from, to, members, got, want)
				}
				limit := int(op>>4) + 1
				var capped []packet.SeqRange
				for _, s := range seqs {
					capped = AppendSeq(capped, s, limit)
				}
				if want = want[:min(limit, len(want))]; !slices.Equal(capped, want) {
					t.Fatalf("op %d: AppendSeq capped at %d = %v, want %v", i, limit, capped, want)
				}
			case 5:
				rq.Push(cum + arg%64)
				qm.push(cum + arg%64)
			case 6:
				cum += arg % 4
				got, gotOK := rq.Pop(cum)
				want, wantOK := qm.pop(cum)
				if got != want || gotOK != wantOK {
					t.Fatalf("op %d: Pop(%d) = %d,%v, model %d,%v", i, cum, got, gotOK, want, wantOK)
				}
			case 7:
				rs := []packet.SeqRange{{First: cum + arg%16, Last: cum + arg%16 + uint32(op>>4)}}
				rq.PushRanges(rs, cum, cum+arg%32)
				for s := max(rs[0].First, cum); s <= rs[0].Last && s < cum+arg%32; s++ {
					qm.push(s)
				}
			}
			if rq.Len() != len(qm.fifo) {
				t.Fatalf("op %d: queue length %d, model %d", i, rq.Len(), len(qm.fifo))
			}
			if w.Lo() != wm.lo {
				t.Fatalf("op %d: Lo = %d, model %d", i, w.Lo(), wm.lo)
			}
			for _, s := range []uint32{q, wm.lo - min(wm.lo, 70), wm.lo, wm.lo + 63, wm.lo + 64, wm.lo + 4100} {
				if w.Has(s) != wm.has(s) {
					t.Fatalf("op %d: Has(%d) = %v, model %v", i, s, w.Has(s), wm.has(s))
				}
			}
		}
	})
}

// TestRingSlidesWithoutGrowing pins the ring's steady state: a span of
// fixed width sliding over a long index range reuses one buffer, and
// slots entering the span read as zero.
func TestRingSlidesWithoutGrowing(t *testing.T) {
	var r Ring[int]
	for i := uint32(0); i < 100; i++ {
		*r.Extend(i) = int(i) + 1
	}
	size := len(r.buf)
	for i := uint32(100); i < 100000; i++ {
		if v := *r.At(i - 100); v != int(i-100)+1 {
			t.Fatalf("At(%d) = %d", i-100, v)
		}
		r.Advance(i - 99)
		if v := r.Extend(i); *v != 0 {
			t.Fatalf("slot %d entered the span holding %d", i, *v)
		} else {
			*v = int(i) + 1
		}
	}
	if len(r.buf) != size || r.Len() != 100 || r.Lo() != 99900 {
		t.Fatalf("buffer %d -> %d slots, span %d from %d", size, len(r.buf), r.Len(), r.Lo())
	}
	if r.At(99899) != nil || r.At(100000) != nil {
		t.Fatal("slots outside the span are readable")
	}
}
