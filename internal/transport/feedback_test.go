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
	if fr.Attempts > 0 || fr.Seg.Source() != ft.at {
		return mac.Continue
	}
	var cum uint32
	var ranges []packet.SeqRange
	switch s := fr.Seg.(type) {
	case *packet.Packet:
		if s.Type != packet.Ack || s.Ack == nil {
			return mac.Continue
		}
		cum, ranges = s.Ack.CumAck, s.Ack.Snack
	case *atp.Segment:
		if s.Kind != atp.Feedback {
			return mac.Continue
		}
		cum, ranges = s.CumAck, s.Snack
	case *tcpsack.Segment:
		if s.Kind != tcpsack.Ack {
			return mac.Continue
		}
		cum, ranges = s.CumAck, s.Sack
	default:
		return mac.Continue
	}
	ft.n++
	fmt.Fprintf(ft.h, "%d %d %v\n", ft.eng.Now(), cum, ranges)
	return mac.Continue
}

func (ft *feedbackTap) PostRcv(*mac.Frame, mac.LinkInfo) {}

// feedbackDigest runs one fixed-size transfer over a lossy chain
// and returns the digest of every feedback packet the receiver sent.
func feedbackDigest(t *testing.T, proto string, lossTolerance float64, nodes, packets int) (string, int) {
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
	return fmt.Sprintf("%x", tap.h.Sum(nil)), tap.n
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
