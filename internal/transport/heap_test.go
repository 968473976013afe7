package transport_test

import (
	"runtime"
	"testing"
	"unsafe"

	"github.com/javelen/jtp/internal/atp"
	"github.com/javelen/jtp/internal/channel"
	"github.com/javelen/jtp/internal/core"
	"github.com/javelen/jtp/internal/energy"
	"github.com/javelen/jtp/internal/mac"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/node"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/routing"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/stats"
	"github.com/javelen/jtp/internal/tcpsack"
	"github.com/javelen/jtp/internal/topology"
	"github.com/javelen/jtp/internal/transport"
)

// streamOrder is the arrival order of the packets of one 64-packet
// block: the odd positions first, then the even ones, so every block
// opens 32 gaps and fills them again.
func streamOrder(i int) uint32 {
	block, k := i/64*64, i%64
	if k < 32 {
		return uint32(block + 2*k + 1)
	}
	return uint32(block + 2*(k-32))
}

// receiverHeap streams n packets through one receiver of proto, fed
// directly (no network run), and returns the heap it retains beyond
// its reception series, which records every delivery by design.
func receiverHeap(t *testing.T, proto string, n int) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	eng := sim.NewEngine(1)
	c := channel.Defaults()
	c.GoodLoss, c.Static = 0, true
	nw := node.New(eng, node.Config{
		Topo:    topology.Linear(3, 80),
		Channel: c,
		MAC:     mac.Defaults(),
		Routing: routing.Config{},
		Energy:  energy.JAVeLEN(),
	})
	nw.Start()
	var deliver func(seq uint32)
	var receiver transport.Endpoint
	switch proto {
	case "jtp":
		r := core.NewReceiver(nw, core.Defaults(1, 0, 2))
		r.Start()
		deliver = func(seq uint32) {
			p := nw.PacketPool().Get()
			p.Type, p.Src, p.Dst, p.Flow, p.Seq = packet.Data, 0, 2, 1, seq
			p.AvailRate, p.PayloadLen = packet.InitialAvailRate, 10
			r.Deliver(p, 1)
		}
		receiver = r
	case "atp":
		r := atp.NewReceiver(nw, transport.Defaults(1, 0, 2), nil)
		r.Start()
		deliver = func(seq uint32) {
			r.Deliver(&atp.Segment{Kind: atp.Data, Wire: transport.Wire{Src: 0, Dst: 2, Flow: 1, Seq: seq, PayloadLen: 10}}, 1)
		}
		receiver = r
	case "tcp":
		r := tcpsack.NewReceiver(nw, transport.Defaults(1, 0, 2), nil)
		r.Start()
		deliver = func(seq uint32) {
			r.Deliver(&tcpsack.Segment{Kind: tcpsack.Data, Wire: transport.Wire{Src: 0, Dst: 2, Flow: 1, Seq: seq, PayloadLen: 10}}, 1)
		}
		receiver = r
	}
	for i := 0; i < n; i++ {
		deliver(streamOrder(i))
	}
	var fr metrics.FlowRecord
	receiver.Record(&fr)
	if fr.UniqueDelivered != uint64(n) || fr.Reception.Len() != n {
		t.Fatalf("%s: %d unique deliveries of %d", proto, fr.UniqueDelivered, n)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(nw)
	runtime.KeepAlive(receiver)
	series := float64(cap(fr.Reception.Samples)) * float64(unsafe.Sizeof(stats.Sample{}))
	return float64(after.HeapAlloc) - float64(before.HeapAlloc) - series
}

// TestReceiverStateBounded streams 10⁵ and then 10⁶ reordered packets
// through each receiver and requires the retained per-flow state to stay
// flat: sequence bookkeeping follows the reordering span, not the
// number of packets delivered. JTP runs fully reliable here; under a
// loss tolerance it also keeps the forgiven sequence numbers still owed.
func TestReceiverStateBounded(t *testing.T) {
	for _, proto := range []string{"jtp", "atp", "tcp"} {
		receiverHeap(t, proto, 10_000) // settle the runtime's own first-use allocations
		small, large := receiverHeap(t, proto, 100_000), receiverHeap(t, proto, 1_000_000)
		t.Logf("%s: retained %.0f B after 10⁵ packets, %.0f B after 10⁶", proto, small, large)
		if large-small > 256<<10 {
			t.Errorf("%s: retained state grew by %.0f B from 10⁵ to 10⁶ packets, want flat", proto, large-small)
		}
	}
}
