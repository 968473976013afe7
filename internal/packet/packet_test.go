package packet

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func samplePacket() *Packet {
	return &Packet{
		Type:         Data,
		Flags:        FlagFirst | FlagRetransmit,
		Src:          3,
		Dst:          9,
		Flow:         7,
		Seq:          12345,
		AvailRate:    3.25,
		LossTol:      0.1,
		EnergyBudget: 0.05,
		EnergyUsed:   0.0123,
		PayloadLen:   772,
	}
}

func sampleAck() *Packet {
	return &Packet{
		Type:      Ack,
		Src:       9,
		Dst:       3,
		Flow:      7,
		AvailRate: 1.5,
		Ack: &AckInfo{
			CumAck:        100,
			Rate:          2.75,
			EnergyBudget:  0.03,
			SenderTimeout: 10,
			Snack:         []SeqRange{{101, 103}, {110, 110}},
			Recovered:     []SeqRange{{105, 106}},
		},
	}
}

func TestEncodeDecodeData(t *testing.T) {
	p := samplePacket()
	p.Quantize()
	buf, err := p.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != p.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(buf), p.EncodedSize())
	}
	q, n, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d", n, len(buf))
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", p, q)
	}
}

func TestEncodeDecodeAck(t *testing.T) {
	p := sampleAck()
	p.Quantize()
	buf, err := p.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("ack round trip mismatch:\n  in  %+v %+v\n  out %+v %+v", p, p.Ack, q, q.Ack)
	}
}

func TestDataHeaderIs28Bytes(t *testing.T) {
	p := &Packet{Type: Data, PayloadLen: 0}
	buf, err := p.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 28 {
		t.Fatalf("bare data header = %d bytes, the paper's prototype header is 28", len(buf))
	}
}

func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prop := func(seq uint32, src, dst, flow uint16, payload uint16, rate, lt, eb, eu float64) bool {
		p := &Packet{
			Type:         Data,
			Src:          NodeID(src),
			Dst:          NodeID(dst),
			Flow:         FlowID(flow),
			Seq:          seq,
			AvailRate:    abs(rate),
			LossTol:      frac(lt),
			EnergyBudget: abs(eb) / 1e9,
			EnergyUsed:   abs(eu) / 1e9,
			PayloadLen:   int(payload % 2000),
		}
		if rng.Intn(2) == 0 {
			p.Type = Ack
			p.Ack = &AckInfo{
				CumAck:        seq / 2,
				Rate:          abs(rate) / 3,
				SenderTimeout: frac(lt) * 100,
				Snack:         randRanges(rng),
				Recovered:     randRanges(rng),
			}
		}
		p.Quantize()
		buf, err := p.Encode(nil)
		if err != nil {
			return false
		}
		q, n, err := Decode(buf)
		if err != nil || n != len(buf) {
			return false
		}
		return reflect.DeepEqual(p, q)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func abs(f float64) float64 {
	if f < 0 {
		f = -f
	}
	if f > 1e6 {
		f = 1e6
	}
	if f != f { // NaN
		return 0
	}
	return f
}

func frac(f float64) float64 {
	f = abs(f)
	for f > 1 {
		f /= 10
	}
	return f
}

func randRanges(rng *rand.Rand) []SeqRange {
	n := rng.Intn(4)
	var out []SeqRange
	base := uint32(rng.Intn(1000))
	for i := 0; i < n; i++ {
		w := uint32(rng.Intn(5))
		out = append(out, SeqRange{base, base + w})
		base += w + 2
	}
	return out
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err != ErrShortBuffer {
		t.Fatalf("nil buffer: %v", err)
	}
	if _, _, err := Decode(make([]byte, 10)); err != ErrShortBuffer {
		t.Fatalf("short buffer: %v", err)
	}
	p := samplePacket()
	buf, _ := p.Encode(nil)
	// Truncated payload.
	if _, _, err := Decode(buf[:len(buf)-1]); err != ErrShortBuffer {
		t.Fatalf("truncated payload: %v", err)
	}
	// Bad version nibble.
	bad := append([]byte(nil), buf...)
	bad[0] = 0x2<<4 | byte(Data)
	if _, _, err := Decode(bad); err != ErrBadVersion {
		t.Fatalf("bad version: %v", err)
	}
	// Unknown type.
	bad = append([]byte(nil), buf...)
	bad[0] = Version<<4 | 0xF
	if _, _, err := Decode(bad); err != ErrBadType {
		t.Fatalf("bad type: %v", err)
	}
	// ACK with truncated range section.
	a := sampleAck()
	abuf, _ := a.Encode(nil)
	if _, _, err := Decode(abuf[:len(abuf)-3]); err != ErrShortBuffer {
		t.Fatalf("truncated ack ranges: %v", err)
	}
}

func TestEncodeErrors(t *testing.T) {
	p := &Packet{Type: Type(9)}
	if _, err := p.Encode(nil); err != ErrBadType {
		t.Fatalf("bad type: %v", err)
	}
	a := sampleAck()
	a.Ack.Snack = make([]SeqRange, 300)
	if _, err := a.Encode(nil); err != ErrTooManyRngs {
		t.Fatalf("too many ranges: %v", err)
	}
	d := samplePacket()
	d.PayloadLen = 1 << 20
	if _, err := d.Encode(nil); err != ErrBadPayload {
		t.Fatalf("oversized payload: %v", err)
	}
}

func TestSizeAccounting(t *testing.T) {
	p := samplePacket()
	if p.Size() != DataHeaderSize+772 {
		t.Fatalf("data size = %d", p.Size())
	}
	a := sampleAck()
	want := DataHeaderSize + AckFixedSize + 3*RangeSize
	if a.Size() != want {
		t.Fatalf("ack size = %d, want %d", a.Size(), want)
	}
	a.Pad = 100
	if a.Size() != want+100 {
		t.Fatal("Pad not counted in Size")
	}
	if a.EncodedSize() != want {
		t.Fatal("Pad must not affect EncodedSize")
	}
}

func TestClone(t *testing.T) {
	a := sampleAck()
	b := a.Clone()
	b.Ack.Snack[0].First = 999
	b.Seq = 42
	if a.Ack.Snack[0].First == 999 || a.Seq == 42 {
		t.Fatal("Clone shares state with original")
	}
}

func TestRangesFromSeqs(t *testing.T) {
	got := RangesFromSeqs([]uint32{5, 1, 2, 3, 9, 10, 7})
	want := []SeqRange{{1, 3}, {5, 5}, {7, 7}, {9, 10}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RangesFromSeqs = %v, want %v", got, want)
	}
	if RangesFromSeqs(nil) != nil {
		t.Fatal("empty input should give nil")
	}
	// duplicates tolerated
	got = RangesFromSeqs([]uint32{4, 4, 5, 5})
	if !reflect.DeepEqual(got, []SeqRange{{4, 5}}) {
		t.Fatalf("dups: %v", got)
	}
}

func TestSeqsRangesInverseProperty(t *testing.T) {
	prop := func(raw []uint32) bool {
		// Dedup and bound the input.
		seen := map[uint32]bool{}
		var seqs []uint32
		for _, s := range raw {
			s %= 10000
			if !seen[s] {
				seen[s] = true
				seqs = append(seqs, s)
			}
		}
		ranges := RangesFromSeqs(seqs)
		back := SeqsFromRanges(ranges)
		if len(back) != len(seqs) {
			return false
		}
		for _, s := range back {
			if !seen[s] {
				return false
			}
		}
		// Every seq must be contained; nothing else.
		for _, s := range seqs {
			if !RangesContain(ranges, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveFromRanges(t *testing.T) {
	rs := []SeqRange{{1, 5}}
	rs = RemoveFromRanges(rs, 3)
	if !reflect.DeepEqual(rs, []SeqRange{{1, 2}, {4, 5}}) {
		t.Fatalf("interior split: %v", rs)
	}
	rs = RemoveFromRanges(rs, 1)
	if !reflect.DeepEqual(rs, []SeqRange{{2, 2}, {4, 5}}) {
		t.Fatalf("head trim: %v", rs)
	}
	rs = RemoveFromRanges(rs, 5)
	if !reflect.DeepEqual(rs, []SeqRange{{2, 2}, {4, 4}}) {
		t.Fatalf("tail trim: %v", rs)
	}
	rs = RemoveFromRanges(rs, 2)
	if !reflect.DeepEqual(rs, []SeqRange{{4, 4}}) {
		t.Fatalf("singleton drop: %v", rs)
	}
	rs = RemoveFromRanges(rs, 99)
	if !reflect.DeepEqual(rs, []SeqRange{{4, 4}}) {
		t.Fatalf("absent removal changed set: %v", rs)
	}
}

func TestRemoveFromRangesProperty(t *testing.T) {
	prop := func(raw []uint32, pick uint32) bool {
		seen := map[uint32]bool{}
		var seqs []uint32
		for _, s := range raw {
			s %= 500
			if !seen[s] {
				seen[s] = true
				seqs = append(seqs, s)
			}
		}
		if len(seqs) == 0 {
			return true
		}
		target := seqs[int(pick)%len(seqs)]
		ranges := RangesFromSeqs(seqs)
		after := RemoveFromRanges(ranges, target)
		if RangesContain(after, target) {
			return false
		}
		// All other seqs must remain.
		for _, s := range seqs {
			if s != target && !RangesContain(after, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAckCounts(t *testing.T) {
	a := sampleAck().Ack
	if a.SnackCount() != 4 { // 101-103 + 110
		t.Fatalf("SnackCount = %d", a.SnackCount())
	}
	if a.RecoveredCount() != 2 { // 105-106
		t.Fatalf("RecoveredCount = %d", a.RecoveredCount())
	}
}

func TestHopCounter(t *testing.T) {
	p := samplePacket()
	if p.Hops() != 0 {
		t.Fatal("fresh packet has hops")
	}
	if p.AddHop() != 1 || p.AddHop() != 2 {
		t.Fatal("AddHop broken")
	}
}

func TestStrings(t *testing.T) {
	if Data.String() != "DATA" || Ack.String() != "ACK" {
		t.Fatal("type names wrong")
	}
	if NodeID(4).String() != "n4" {
		t.Fatal("node id format")
	}
	if (SeqRange{2, 5}).String() != "[2..5]" {
		t.Fatal("range format")
	}
	_ = samplePacket().String()
	_ = sampleAck().String()
}
