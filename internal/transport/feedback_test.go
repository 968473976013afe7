package transport_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"github.com/javelen/jtp/internal/atp"
	"github.com/javelen/jtp/internal/channel"
	"github.com/javelen/jtp/internal/energy"
	"github.com/javelen/jtp/internal/mac"
	"github.com/javelen/jtp/internal/node"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/routing"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/tcpsack"
	"github.com/javelen/jtp/internal/topology"
	"github.com/javelen/jtp/internal/transport"
	_ "github.com/javelen/jtp/internal/transport/drivers"
)

// feedbackTap is a MAC plugin on the data receiver's node that hashes
// every feedback packet the receiver originates, at its first
// transmission attempt: the time, the cumulative ACK and the full
// SNACK/SACK range list, as built (before any in-network node edits it).
type feedbackTap struct {
	at  packet.NodeID
	eng *sim.Engine
	h   hash.Hash
	n   int
}

func (ft *feedbackTap) PreXmit(fr *mac.Frame, _ mac.LinkInfo) mac.Verdict {
	src, ok := segSrc(fr.Seg)
	cum, ranges, fb := feedback(fr.Seg)
	if fr.Attempts > 0 || !ok || src != ft.at || !fb {
		return mac.Continue
	}
	ft.n++
	fmt.Fprintf(ft.h, "%d %d %v\n", ft.eng.Now(), cum, ranges)
	return mac.Continue
}

func (ft *feedbackTap) PostRcv(*mac.Frame) {}

// segSrc returns the end-to-end source of a JTP, ATP or TCP-SACK segment.
func segSrc(seg mac.Segment) (packet.NodeID, bool) {
	switch s := seg.(type) {
	case *packet.Packet:
		return s.Src, true
	case *atp.Segment:
		return s.Src, true
	case *tcpsack.Segment:
		return s.Src, true
	}
	return 0, false
}

// feedback returns the cumulative ACK and the SNACK/SACK range list of a
// JTP, ATP or TCP-SACK feedback segment.
func feedback(seg mac.Segment) (cum uint32, ranges []packet.SeqRange, ok bool) {
	switch s := seg.(type) {
	case *packet.Packet:
		if s.Type == packet.Ack && s.Ack != nil {
			return s.Ack.CumAck, s.Ack.Snack, true
		}
	case *atp.Segment:
		if s.Kind == atp.Feedback {
			return s.CumAck, s.Ranges, true
		}
	case *tcpsack.Segment:
		if s.Kind == tcpsack.Ack {
			return s.CumAck, s.Ranges, true
		}
	}
	return 0, nil, false
}

// dataTap is a MAC plugin on the data source's node that hashes every
// DATA packet the source originates, at its first transmission attempt:
// the time, the sequence number, the retransmission flag and the
// on-air size. It also notes when the source's transfer completes: at
// the first feedback to arrive whose cumulative ACK covers all total
// packets.
type dataTap struct {
	at          packet.NodeID
	eng         *sim.Engine
	h           hash.Hash
	n           int
	total       uint32
	completedAt sim.Time
}

func (dt *dataTap) PreXmit(fr *mac.Frame, _ mac.LinkInfo) mac.Verdict {
	if src, ok := segSrc(fr.Seg); fr.Attempts > 0 || !ok || src != dt.at {
		return mac.Continue
	}
	var seq uint32
	var retx bool
	switch s := fr.Seg.(type) {
	case *packet.Packet:
		if s.Type != packet.Data {
			return mac.Continue
		}
		seq, retx = s.Seq, s.Flags&packet.FlagRetransmit != 0
	case *atp.Segment:
		if s.Kind != atp.Data {
			return mac.Continue
		}
		seq, retx = s.Seq, s.Retx
	case *tcpsack.Segment:
		if s.Kind != tcpsack.Data {
			return mac.Continue
		}
		seq, retx = s.Seq, s.Retx
	default:
		return mac.Continue
	}
	dt.n++
	fmt.Fprintf(dt.h, "%d %d %t %d\n", dt.eng.Now(), seq, retx, fr.Seg.Size())
	return mac.Continue
}

func (dt *dataTap) PostRcv(fr *mac.Frame) {
	if cum, _, ok := feedback(fr.Seg); ok && cum >= dt.total && dt.completedAt == 0 {
		dt.completedAt = dt.eng.Now()
	}
}

// feedbackDigest runs one fixed-size transfer over a lossy chain
// and returns the digest of every feedback packet the receiver sent.
func feedbackDigest(t *testing.T, proto string, lossTolerance float64, nodes, packets int) (string, int) {
	t.Helper()
	fb, _, n, _ := transferDigests(t, proto, lossTolerance, nodes, packets)
	return fb, n
}

// transferDigests runs one fixed-size transfer over a lossy chain and
// returns the digests of every feedback packet the receiver sent and of
// every DATA packet the source sent (closed by the source's completion
// time), with their counts.
func transferDigests(t *testing.T, proto string, lossTolerance float64, nodes, packets int) (fbDigest, dataDigest string, fbN, dataN int) {
	t.Helper()
	eng := sim.NewEngine(3)
	nw := node.New(eng, node.Config{
		Topo:    topology.Linear(nodes, 80),
		Channel: channel.Defaults(),
		MAC:     mac.Defaults(),
		Routing: routing.Config{},
		Energy:  energy.JAVeLEN(),
	})
	drv, err := transport.New(proto)
	if err != nil {
		t.Fatal(err)
	}
	if err := drv.Attach(nw, transport.NetConfig{}); err != nil {
		t.Fatal(err)
	}
	dst := packet.NodeID(nodes - 1)
	tap := &feedbackTap{at: dst, eng: eng, h: sha256.New()}
	nw.Node(dst).MAC.AddPlugin(tap)
	data := &dataTap{at: 0, eng: eng, h: sha256.New(), total: uint32(packets)}
	nw.Node(0).MAC.AddPlugin(data)
	nw.Start()
	fl, err := drv.OpenFlow(transport.FlowSpec{Flow: 1, Src: 0, Dst: dst, TotalPackets: packets, LossTolerance: lossTolerance})
	if err != nil {
		t.Fatal(err)
	}
	fl.Start()
	eng.RunFor(5000 * sim.Second)
	if !fl.Done() {
		t.Fatalf("%s: transfer incomplete: %+v", proto, fl.Stats())
	}
	fmt.Fprintf(data.h, "completed %d\n", data.completedAt)
	return fmt.Sprintf("%x", tap.h.Sum(nil)), fmt.Sprintf("%x", data.h.Sum(nil)), tap.n, data.n
}

// TestFeedbackDigest pins, per protocol, every feedback packet's
// cumulative ACK and range list on a lossy chain: JTP's SNACK (fully
// reliable and under 10% and 20% loss tolerances, so forgiveness and
// the stalled-tail requests run), ATP's SNACK and TCP's three most
// recent SACK blocks. The sequence bookkeeping behind them may be restructured
// freely; the bytes on the air may not move.
func TestFeedbackDigest(t *testing.T) {
	for _, tc := range []struct {
		proto   string
		lt      float64
		nodes   int
		packets int
		acks    int
		want    string
	}{
		{"jtp", 0, 6, 300, 17, "dc93ed1ae4d8998d41df4eeaff9b46b724e257ca05d24bac6cb98e2550e54a6f"},
		{"jtp", 0.1, 6, 300, 17, "ee6deb84524337d4c7208b7b40e0f2b244fe6c602f92f6202d532aaa650add08"},
		{"jnc", 0.2, 8, 500, 33, "64ac94662e5fe82a9bdedc0a47fc035bb73d725328b0a23a4f0e4c5316464c8e"},
		{"atp", 0, 6, 300, 76, "22724b78e33e19d0207cb027295ee84795a366887383db7743f52f52361b967b"},
		{"tcp", 0, 4, 60, 70, "539794a530aaadbc48bdd09566051c6012cfe9fba00abad9391212cf26ef0de2"},
		{"tcp", 0, 3, 150, 135, "b3fa1dfe6f07957b383bac218a4621f2fd0aa922f511f51bb4a8881146391bfb"},
	} {
		got, n := feedbackDigest(t, tc.proto, tc.lt, tc.nodes, tc.packets)
		if got != tc.want || n != tc.acks {
			t.Errorf("%s lt=%g: %d feedback packets digest %s, want %d digest %s", tc.proto, tc.lt, n, got, tc.acks, tc.want)
		}
	}
}

// TestDataDigest pins, on the chains of TestFeedbackDigest, every DATA
// packet the source sent — when, which sequence number, whether as a
// retransmission, and its on-air size — and when the source learned the
// transfer completed. Pacing, retransmission choice and completion may
// be restructured freely; the source's transmissions may not move.
func TestDataDigest(t *testing.T) {
	for _, tc := range []struct {
		proto   string
		lt      float64
		nodes   int
		packets int
		sent    int
		want    string
	}{
		{"jtp", 0, 6, 300, 306, "3ec8a60b2d12ffb8bea2943587d0183758ed2c70c92e7606218fae58c049f326"},
		{"jtp", 0.1, 6, 300, 306, "8ac29028a5b31d4747cfa4f25c8219dc28d822b5b2cc97e6a7aa1b61d7b496f1"},
		{"jnc", 0.2, 8, 500, 637, "509b9bbe3b283a3080ebfa27445a45e71b15c5fc69ded832437ed0b2694d05f5"},
		{"atp", 0, 6, 300, 533, "f202d0e2749503e792dacc3e8427812f89a39270ef9716bd4db3d5b45488bf7b"},
		{"tcp", 0, 4, 60, 107, "7e463aec5095b8ae9d758a4e57f4e56c92bec50267610c276077cae04cba46f4"},
		{"tcp", 0, 3, 150, 192, "328b9d3839e448b96cd3d63185b6c4278c139d2414c6afe33a3cd86057ff1694"},
	} {
		_, got, _, n := transferDigests(t, tc.proto, tc.lt, tc.nodes, tc.packets)
		if got != tc.want || n != tc.sent {
			t.Errorf("%s lt=%g: %d DATA packets digest %s, want %d digest %s", tc.proto, tc.lt, n, got, tc.sent, tc.want)
		}
	}
}
