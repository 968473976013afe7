package packet

import (
	"reflect"
	"testing"
)

// roundTripPacket is a worst-case feedback packet: deadline extension,
// SNACK and recovered ranges, payload.
func roundTripPacket() *Packet {
	return &Packet{
		Type: Ack, Flags: FlagEarlyFeedback | FlagDeadline,
		Src: 3, Dst: 9, Flow: 2, Seq: 77,
		AvailRate: 12.5, LossTol: 0.125, EnergyBudget: 0.5, EnergyUsed: 0.25,
		Deadline: 42.5, PayloadLen: 64,
		Ack: &AckInfo{
			CumAck: 70, Rate: 9.5, EnergyBudget: 0.01, SenderTimeout: 10,
			Snack:     []SeqRange{{First: 71, Last: 75}, {First: 80, Last: 80}},
			Recovered: []SeqRange{{First: 77, Last: 78}},
		},
	}
}

// TestDecodeIntoMatchesDecode pins that decoding into a reused packet
// parses exactly like decoding into a fresh one, including buffer reuse across packets
// of different shapes.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	ack := roundTripPacket()
	ack.Quantize()
	data := &Packet{Type: Data, Src: 1, Dst: 2, Flow: 4, Seq: 5, PayloadLen: 16,
		AvailRate: 3, LossTol: 0.1}
	data.Quantize()

	var reused Packet
	for _, p := range []*Packet{ack, data, ack, data} {
		buf, err := p.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		want, wn, err := decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		gn, err := reused.DecodeInto(buf)
		if err != nil {
			t.Fatal(err)
		}
		if gn != wn {
			t.Fatalf("consumed %d bytes, a fresh decode consumed %d", gn, wn)
		}
		if !reflect.DeepEqual(&reused, want) {
			t.Fatalf("DecodeInto diverged from a fresh decode:\n got %+v\nwant %+v", &reused, want)
		}
	}
}

// TestDecodeIntoOverwritesStaleFields pins that decoding a DATA packet
// into a slot that previously held an ACK clears the feedback block.
func TestDecodeIntoOverwritesStaleFields(t *testing.T) {
	ack := roundTripPacket()
	ack.Quantize()
	abuf, _ := ack.AppendEncode(nil)
	var p Packet
	if _, err := p.DecodeInto(abuf); err != nil {
		t.Fatal(err)
	}
	data := &Packet{Type: Data, Src: 1, Dst: 2, Seq: 9}
	dbuf, _ := data.AppendEncode(nil)
	if _, err := p.DecodeInto(dbuf); err != nil {
		t.Fatal(err)
	}
	if p.Ack != nil || p.Deadline != 0 || p.PayloadLen != 0 {
		t.Fatalf("stale fields survived re-decode: %+v", &p)
	}
}

// TestAllocsEncodeDecodeRoundTrip guards the codec hot path: with a
// reused buffer and packet, an encode/decode round trip of a worst-case
// feedback packet must be allocation-free.
func TestAllocsEncodeDecodeRoundTrip(t *testing.T) {
	src := roundTripPacket()
	src.Quantize()
	buf := make([]byte, 0, 512)
	var dst Packet
	// Warm dst's Ack block and range buffers.
	b, err := src.AppendEncode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.DecodeInto(b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		b, err := src.AppendEncode(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dst.DecodeInto(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("encode/decode round trip allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestPoolRecycles pins the free-list contract: Put zeroes, Get returns
// recycled packets, feedback blocks keep range capacity, and the nil pool
// is inert.
func TestPoolRecycles(t *testing.T) {
	var pl Pool
	p := pl.Get()
	p.Ack = pl.GetAck()
	p.Ack.Snack = append(p.Ack.Snack, SeqRange{1, 5})
	p.Seq = 99
	snackBuf := p.Ack.Snack[:1][0] // remember contents to prove reuse below
	_ = snackBuf
	pl.Put(p)
	q := pl.Get()
	if q != p {
		t.Fatal("Get did not recycle the freed packet")
	}
	if q.Seq != 0 || q.Ack != nil {
		t.Fatalf("recycled packet not zeroed: %+v", q)
	}
	a := pl.GetAck()
	if cap(a.Snack) == 0 {
		t.Fatal("recycled AckInfo lost its SNACK capacity")
	}
	if len(a.Snack) != 0 || a.CumAck != 0 {
		t.Fatalf("recycled AckInfo not zeroed: %+v", a)
	}

	var nilPool *Pool
	nilPool.Put(&Packet{})
	if nilPool.Get() == nil || nilPool.GetAck() == nil {
		t.Fatal("nil pool must fall back to the heap")
	}
}

// TestCloneIntoMatchesClone pins the pooled clone against the allocating
// one, and that clones never alias the source's range arrays.
func TestCloneIntoMatchesClone(t *testing.T) {
	var pl Pool
	for _, src := range []*Packet{roundTripPacket(), {Type: Data, Src: 1, Dst: 2, Seq: 3}} {
		want := src.Clone()
		dst := pl.Get()
		dst.Ack = pl.GetAck() // simulate a recycled slot with a stale block
		dst.Ack.Snack = append(dst.Ack.Snack, SeqRange{9, 9})
		src.CloneInto(dst, &pl)
		if !reflect.DeepEqual(dst, want) {
			t.Fatalf("CloneInto diverged from Clone:\n got %+v\nwant %+v", dst, want)
		}
		if src.Ack != nil && len(dst.Ack.Snack) > 0 {
			dst.Ack.Snack[0].First++ // mutate the clone...
			if src.Ack.Snack[0] == dst.Ack.Snack[0] {
				t.Fatal("clone aliases the source's SNACK array")
			}
			dst.Ack.Snack[0].First--
		}
	}
}

// TestAllocsCloneIntoSteadyState guards the cache clone path.
func TestAllocsCloneIntoSteadyState(t *testing.T) {
	var pl Pool
	src := &Packet{Type: Data, Src: 1, Dst: 2, Seq: 3, PayloadLen: 772}
	dst := pl.Get()
	src.CloneInto(dst, &pl)
	allocs := testing.AllocsPerRun(1000, func() {
		src.Seq++
		src.CloneInto(dst, &pl)
	})
	if allocs != 0 {
		t.Fatalf("CloneInto allocates %.1f allocs/op, want 0", allocs)
	}
}
