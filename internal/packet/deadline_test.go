package packet

import (
	"reflect"
	"testing"
)

func TestDeadlineRoundTrip(t *testing.T) {
	p := samplePacket()
	p.Flags |= FlagDeadline
	p.Deadline = 1234.567
	p.Quantize()
	buf, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	q, n, err := decode(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: %v n=%d/%d", err, n, len(buf))
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("deadline round trip mismatch:\n in  %+v\n out %+v", p, q)
	}
	if q.Deadline != 1234.567 {
		t.Fatalf("deadline = %v", q.Deadline)
	}
}

func TestDeadlineSizeAccounting(t *testing.T) {
	p := samplePacket()
	base := p.Size()
	p.Flags |= FlagDeadline
	p.Deadline = 10
	if p.Size() != base+DeadlineExtSize {
		t.Fatalf("deadline extension not counted: %d vs %d", p.Size(), base)
	}
	buf, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != p.Size()-p.Pad {
		t.Fatalf("encoded %d, Size()-Pad %d", len(buf), p.Size()-p.Pad)
	}
}

func TestDeadlineWithoutFlagNotEncoded(t *testing.T) {
	p := samplePacket()
	p.Deadline = 99 // flag not set: field is sim-local, not on wire
	p.Quantize()
	if p.Deadline != 0 {
		t.Fatal("Quantize should clear an unflagged deadline (wire truth)")
	}
	buf, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Deadline != 0 {
		t.Fatal("unflagged deadline leaked onto the wire")
	}
}

func TestDeadlineTruncatedBuffer(t *testing.T) {
	p := samplePacket()
	p.PayloadLen = 0
	p.Flags |= FlagDeadline
	p.Deadline = 5
	buf, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decode(buf[:DataHeaderSize+1]); err != ErrShortBuffer {
		t.Fatalf("truncated deadline ext: %v", err)
	}
}
