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

// decode parses one packet from buf into a fresh Packet.
func decode(buf []byte) (*Packet, int, error) {
	p := new(Packet)
	n, err := p.DecodeInto(buf)
	if err != nil {
		return nil, 0, err
	}
	return p, n, nil
}

func TestEncodeDecodeData(t *testing.T) {
	p := samplePacket()
	p.Quantize()
	buf, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != p.Size()-p.Pad {
		t.Fatalf("encoded %d bytes, Size()-Pad = %d", len(buf), p.Size()-p.Pad)
	}
	q, n, err := decode(buf)
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
	buf, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("ack round trip mismatch:\n  in  %+v %+v\n  out %+v %+v", p, p.Ack, q, q.Ack)
	}
}

func TestDataHeaderIs28Bytes(t *testing.T) {
	p := &Packet{Type: Data, PayloadLen: 0}
	buf, err := p.AppendEncode(nil)
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
		buf, err := p.AppendEncode(nil)
		if err != nil {
			return false
		}
		q, n, err := decode(buf)
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
	if _, _, err := decode(nil); err != ErrShortBuffer {
		t.Fatalf("nil buffer: %v", err)
	}
	if _, _, err := decode(make([]byte, 10)); err != ErrShortBuffer {
		t.Fatalf("short buffer: %v", err)
	}
	p := samplePacket()
	buf, _ := p.AppendEncode(nil)
	// Truncated payload.
	if _, _, err := decode(buf[:len(buf)-1]); err != ErrShortBuffer {
		t.Fatalf("truncated payload: %v", err)
	}
	// Bad version nibble.
	bad := append([]byte(nil), buf...)
	bad[0] = 0x2<<4 | byte(Data)
	if _, _, err := decode(bad); err != ErrBadVersion {
		t.Fatalf("bad version: %v", err)
	}
	// Unknown type.
	bad = append([]byte(nil), buf...)
	bad[0] = Version<<4 | 0xF
	if _, _, err := decode(bad); err != ErrBadType {
		t.Fatalf("bad type: %v", err)
	}
	// ACK with truncated range section.
	a := sampleAck()
	abuf, _ := a.AppendEncode(nil)
	if _, _, err := decode(abuf[:len(abuf)-3]); err != ErrShortBuffer {
		t.Fatalf("truncated ack ranges: %v", err)
	}
}

func TestEncodeErrors(t *testing.T) {
	p := &Packet{Type: Type(9)}
	if _, err := p.AppendEncode(nil); err != ErrBadType {
		t.Fatalf("bad type: %v", err)
	}
	a := sampleAck()
	a.Ack.Snack = make([]SeqRange, 300)
	if _, err := a.AppendEncode(nil); err != ErrTooManyRngs {
		t.Fatalf("too many ranges: %v", err)
	}
	d := samplePacket()
	d.PayloadLen = 1 << 20
	if _, err := d.AppendEncode(nil); err != ErrBadPayload {
		t.Fatalf("oversized payload: %v", err)
	}
}

// TestSizeAccounting pins the on-air size Size() charges per packet
// type, which is what every energy figure is computed from, and that the
// wire encoding is that size less Pad.
func TestSizeAccounting(t *testing.T) {
	ack := func(k int) *Packet {
		a := sampleAck()
		a.Ack.Snack = make([]SeqRange, k)
		a.Ack.Recovered = make([]SeqRange, k)
		for i := range k {
			a.Ack.Snack[i] = SeqRange{uint32(10 * i), uint32(10*i + 2)}
			a.Ack.Recovered[i] = SeqRange{uint32(10*i + 5), uint32(10*i + 5)}
		}
		return a
	}
	deadline := samplePacket()
	deadline.Flags |= FlagDeadline
	deadline.Deadline = 10
	padded := ack(1)
	padded.Pad = 100
	for _, c := range []struct {
		name string
		p    *Packet
		size int
	}{
		{"data", samplePacket(), 28 + 772},
		{"data+deadline", deadline, 28 + 4 + 772},
		{"ack k=0", ack(0), 28 + 18},
		{"ack k=1", ack(1), 28 + 18 + 2*8},
		{"ack k=3", ack(3), 28 + 18 + 6*8},
		{"ack k=1 pad 100", padded, 28 + 18 + 2*8 + 100},
	} {
		if got := c.p.Size(); got != c.size {
			t.Errorf("%s: Size() = %d, want %d", c.name, got, c.size)
		}
		buf, err := c.p.AppendEncode(nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(buf) != c.p.Size()-c.p.Pad {
			t.Errorf("%s: encoded %d bytes, Size()-Pad = %d", c.name, len(buf), c.p.Size()-c.p.Pad)
		}
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
	prop := func(seed int64, pick uint32) bool {
		ranges := randRanges(rand.New(rand.NewSource(seed)))
		var seqs []uint32
		for _, r := range ranges {
			for s := r.First; s <= r.Last; s++ {
				seqs = append(seqs, s)
			}
		}
		if len(seqs) == 0 {
			return true
		}
		target := seqs[int(pick)%len(seqs)]
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
	if a.RecoveredCount() != 2 { // 105-106
		t.Fatalf("RecoveredCount = %d", a.RecoveredCount())
	}
}

func TestHopCounter(t *testing.T) {
	p := samplePacket()
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
