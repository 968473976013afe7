package ijtp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/javelen/jtp/internal/mac"
	"github.com/javelen/jtp/internal/packet"
)

// --- Equation-level tests (§3) ---------------------------------------

func TestMaxAttemptsForTable(t *testing.T) {
	cases := []struct {
		q, p float64
		max  int
		want int
	}{
		{1.0, 0.1, 5, 5},   // lt=0 ⇒ max effort
		{0.9, 0.1, 5, 1},   // one try: success 0.9 ≥ target 0.9
		{0.99, 0.1, 5, 2},  // 1−0.1² = 0.99
		{0.999, 0.1, 5, 3}, // 1−0.1³
		{0.99, 0.5, 5, 5},  // 1−0.5^m ≥ 0.99 ⇒ m ≥ 6.64, clamp at 5
		{0.5, 0.5, 5, 1},   // 1−0.5 = 0.5 target met with one
		{0.0, 0.3, 5, 1},   // no requirement, one attempt
		{0.9, 0.0, 5, 1},   // perfect link
		{0.9, 1.0, 5, 5},   // hopeless link, cap
	}
	for _, c := range cases {
		if got := MaxAttemptsFor(c.q, c.p, c.max); got != c.want {
			t.Errorf("MaxAttemptsFor(q=%v,p=%v,max=%d) = %d, want %d", c.q, c.p, c.max, got, c.want)
		}
	}
}

func TestMaxAttemptsAchievesTarget(t *testing.T) {
	// Property: the granted attempts actually achieve the target success
	// probability (Eq 2 with the ceiling), unless clamped by MAX.
	prop := func(qRaw, pRaw float64) bool {
		q := math.Mod(math.Abs(qRaw), 1)
		p := math.Mod(math.Abs(pRaw), 1)
		if math.IsNaN(q) || math.IsNaN(p) {
			return true
		}
		const max = 10
		m := MaxAttemptsFor(q, p, max)
		if m < 1 || m > max {
			return false
		}
		achieved := 1 - math.Pow(p, float64(m))
		if m < max && achieved+1e-9 < q {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPerHopTarget(t *testing.T) {
	// Eq 4: q = (1−lt)^(1/H); H hops at success q give exactly 1−lt.
	for _, lt := range []float64{0.05, 0.1, 0.2, 0.5} {
		for _, h := range []int{1, 2, 5, 10} {
			q := PerHopTarget(lt, h)
			e2e := math.Pow(q, float64(h))
			if math.Abs(e2e-(1-lt)) > 1e-12 {
				t.Errorf("lt=%v h=%d: q^h = %v, want %v", lt, h, e2e, 1-lt)
			}
		}
	}
	if PerHopTarget(0, 5) != 1 {
		t.Error("zero tolerance needs q=1")
	}
	if PerHopTarget(1, 5) != 0 {
		t.Error("full tolerance allows q=0")
	}
	if PerHopTarget(0.2, 0) != PerHopTarget(0.2, 1) {
		t.Error("h<1 should clamp to 1")
	}
}

// TestPowIntMatchesMathPow pins PreXmit's q_i = 1 − p^M to the bits
// math.Pow gave: every attempt budget up to 16, at loss rates on a grid
// over [MinLossRate, 1] and at 10^6 seeded draws, half uniform and half
// log-uniform so small rates are as well covered as large ones.
func TestPowIntMatchesMathPow(t *testing.T) {
	lo := Defaults().MinLossRate
	check := func(x float64, n int) {
		if got, want := powInt(x, n), math.Pow(x, float64(n)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("powInt(%v, %d) = %v, math.Pow %v", x, n, got, want)
		}
	}
	for n := 1; n <= 16; n++ {
		for i := 0; i <= 1000; i++ {
			check(lo+(1-lo)*float64(i)/1000, n)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		x := lo + (1-lo)*rng.Float64()
		if i%2 == 1 {
			x = math.Pow(lo, rng.Float64())
		}
		check(x, 1+i%16)
	}
}

func TestUpdateLossToleranceIdentity(t *testing.T) {
	// Eq 3 invariant: (1−lt_i) = q_i · (1−lt_{i+1}).
	for _, lt := range []float64{0.05, 0.1, 0.3} {
		for _, qi := range []float64{0.9, 0.95, 0.99} {
			next := UpdateLossTolerance(lt, qi)
			lhs := 1 - lt
			rhs := qi * (1 - next)
			if next > 0 && math.Abs(lhs-rhs) > 1e-9 {
				t.Errorf("lt=%v qi=%v: identity violated (%v vs %v)", lt, qi, lhs, rhs)
			}
		}
	}
	// Over-achieving link (qi > 1−lt): remaining tolerance clamps at 0,
	// "left-over attempts do not get used downstream".
	if next := UpdateLossTolerance(0.2, 0.5); next != 0 {
		t.Errorf("over-achieved hop should clamp tolerance to 0, got %v", next)
	}
}

func TestEndToEndToleranceComposition(t *testing.T) {
	// The paper's §3 invariant: executing the per-hop computation at each
	// node of an H-hop path meets the end-to-end loss tolerance, even
	// though each hop recomputes from its own (here: accurate) view.
	prop := func(ltRaw float64, hRaw uint8, pRaw float64) bool {
		lt := 0.01 + math.Mod(math.Abs(ltRaw), 0.4)
		h := 1 + int(hRaw%8)
		p := 0.01 + math.Mod(math.Abs(pRaw), 0.5)
		if math.IsNaN(lt) || math.IsNaN(p) {
			return true
		}
		const maxAttempts = 50 // uncapped regime: target must be met exactly
		e2eSuccess := 1.0
		remaining := lt
		for hop := 0; hop < h; hop++ {
			q := PerHopTarget(remaining, h-hop)
			m := MaxAttemptsFor(q, p, maxAttempts)
			qi := 1 - math.Pow(p, float64(m))
			e2eSuccess *= qi
			remaining = UpdateLossTolerance(remaining, qi)
		}
		// Achieved end-to-end loss must be within tolerance.
		return 1-e2eSuccess <= lt+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// --- Plugin-level tests (Algorithms 1 and 2) --------------------------

type fakeView struct{ hops int }

func (f fakeView) HopsTo(packet.NodeID) int { return f.hops }

func dataPkt(seq uint32) *packet.Packet {
	return &packet.Packet{
		Type: packet.Data, Src: 0, Dst: 9, Flow: 1, Seq: seq,
		AvailRate: packet.InitialAvailRate, LossTol: 0.2, PayloadLen: 772,
	}
}

func ackPkt(snack []packet.SeqRange) *packet.Packet {
	return &packet.Packet{
		Type: packet.Ack, Src: 9, Dst: 0, Flow: 1,
		AvailRate: packet.InitialAvailRate,
		Ack:       &packet.AckInfo{CumAck: 0, Snack: snack},
	}
}

func TestPreXmitEnergyAccounting(t *testing.T) {
	pl := New(1, Defaults(), fakeView{hops: 3}, nil)
	p := dataPkt(1)
	p.EnergyBudget = 0.010
	fr := &mac.Frame{Seg: p, MaxAttempts: 1}
	link := mac.LinkInfo{FirstAttempt: true, AttemptCost: 0.004, LossRate: 0.1, AvailRate: 5}
	if v := pl.PreXmit(fr, link); v != mac.Continue {
		t.Fatal("first attempt should continue")
	}
	if p.EnergyUsed != 0.004 {
		t.Fatalf("energy used = %v", p.EnergyUsed)
	}
	// Second and third attempts exceed the 10 mJ budget.
	link.FirstAttempt = false
	pl.PreXmit(fr, link)
	if v := pl.PreXmit(fr, link); v != mac.Drop {
		t.Fatalf("budget exceeded but verdict = %v", v)
	}
	if pl.Counters().EnergyDrops != 1 {
		t.Fatal("energy drop not counted")
	}
}

func TestPreXmitZeroBudgetUnlimited(t *testing.T) {
	pl := New(1, Defaults(), fakeView{hops: 2}, nil)
	p := dataPkt(1)
	p.EnergyBudget = 0
	fr := &mac.Frame{Seg: p, MaxAttempts: 1}
	link := mac.LinkInfo{AttemptCost: 1.0, LossRate: 0.1, AvailRate: 5}
	for i := 0; i < 10; i++ {
		if pl.PreXmit(fr, link) != mac.Continue {
			t.Fatal("unbudgeted packet dropped")
		}
	}
}

func TestPreXmitSetsAttemptsAndTolerance(t *testing.T) {
	pl := New(1, Defaults(), fakeView{hops: 2}, nil)
	p := dataPkt(1) // lt = 0.2, 2 hops remain
	fr := &mac.Frame{Seg: p, MaxAttempts: 1}
	link := mac.LinkInfo{FirstAttempt: true, AttemptCost: 1e-4, LossRate: 0.3, AvailRate: 5}
	pl.PreXmit(fr, link)
	// q = (0.8)^(1/2) ≈ 0.894; with p=0.3: m = ceil(log(0.106)/log(0.3)) = 2.
	if g := pl.Counters().Granted; fr.MaxAttempts != 2 || g != [8]uint64{2: 1} {
		t.Fatalf("attempts = %d (granted %v), want 2", fr.MaxAttempts, g)
	}
	// qi = 1−0.3² = 0.91 > q, so downstream tolerance loosens relative
	// to naive split but keeps the e2e invariant: lt' = 1−0.8/0.91.
	want := 1 - 0.8/0.91
	if math.Abs(p.LossTol-want) > 1e-9 {
		t.Fatalf("updated lt = %v, want %v", p.LossTol, want)
	}
}

func TestPreXmitRateStamping(t *testing.T) {
	pl := New(1, Defaults(), fakeView{hops: 2}, nil)
	p := dataPkt(1)
	fr := &mac.Frame{Seg: p, MaxAttempts: 1}
	pl.PreXmit(fr, mac.LinkInfo{FirstAttempt: true, AvailRate: 5, LossRate: 0.1, AttemptCost: 1e-6})
	if p.AvailRate != 5 {
		t.Fatalf("stamp = %v", p.AvailRate)
	}
	// A later, faster hop must not raise the stamp.
	pl2 := New(2, Defaults(), fakeView{hops: 1}, nil)
	fr2 := &mac.Frame{Seg: p, MaxAttempts: 1}
	pl2.PreXmit(fr2, mac.LinkInfo{FirstAttempt: true, AvailRate: 50, LossRate: 0.1, AttemptCost: 1e-6})
	if p.AvailRate != 5 {
		t.Fatalf("faster hop raised the min stamp: %v", p.AvailRate)
	}
}

func TestAckFramesGetFullEffort(t *testing.T) {
	pl := New(1, Defaults(), fakeView{hops: 2}, nil)
	a := ackPkt(nil)
	fr := &mac.Frame{Seg: a, MaxAttempts: 1}
	pl.PreXmit(fr, mac.LinkInfo{FirstAttempt: true, AttemptCost: 1e-6, LossRate: 0.3, AvailRate: 5})
	if fr.MaxAttempts != Defaults().MaxAttempts {
		t.Fatalf("ack attempts = %d, want MAX_ATTEMPTS", fr.MaxAttempts)
	}
}

func TestPostRcvCachesData(t *testing.T) {
	pl := New(1, Defaults(), fakeView{hops: 2}, nil)
	p := dataPkt(7)
	pl.PostRcv(&mac.Frame{Seg: p})
	if pl.Cache().Stats().Inserts != 1 {
		t.Fatal("traversing data not cached")
	}
	// The destination itself does not cache.
	plDst := New(9, Defaults(), fakeView{hops: 0}, nil)
	plDst.PostRcv(&mac.Frame{Seg: dataPkt(8)})
	if plDst.Cache().Stats().Inserts != 0 {
		t.Fatal("destination cached its own delivery")
	}
}

func TestServeSnackFromCache(t *testing.T) {
	var forwarded []*packet.Packet
	pl := New(1, Defaults(), fakeView{hops: 2}, func(p *packet.Packet) bool {
		forwarded = append(forwarded, p)
		return true
	})
	// Cache packets 5 and 6 as they traverse.
	pl.PostRcv(&mac.Frame{Seg: dataPkt(5)})
	pl.PostRcv(&mac.Frame{Seg: dataPkt(6)})

	// An ACK (dst→src) requests 4..6.
	a := ackPkt([]packet.SeqRange{{First: 4, Last: 6}})
	pl.PostRcv(&mac.Frame{Seg: a})

	if len(forwarded) != 2 {
		t.Fatalf("forwarded %d packets, want 2", len(forwarded))
	}
	for _, p := range forwarded {
		if p.Flags&packet.FlagCacheRecovered == 0 {
			t.Fatal("recovered packet not flagged")
		}
	}
	// The ACK's SNACK must now exclude 5 and 6 but keep 4; 5 and 6 move
	// to the locally-recovered field (§4).
	if packet.RangesContain(a.Ack.Snack, 5) || packet.RangesContain(a.Ack.Snack, 6) {
		t.Fatalf("served seqs still in SNACK: %v", a.Ack.Snack)
	}
	if !packet.RangesContain(a.Ack.Snack, 4) {
		t.Fatalf("unserved seq dropped from SNACK: %v", a.Ack.Snack)
	}
	if !packet.RangesContain(a.Ack.Recovered, 5) || !packet.RangesContain(a.Ack.Recovered, 6) {
		t.Fatalf("recovered field wrong: %v", a.Ack.Recovered)
	}
	if pl.Counters().CacheServed != 2 {
		t.Fatalf("cacheServed = %d", pl.Counters().CacheServed)
	}
}

func TestNoDoubleRecovery(t *testing.T) {
	// An upstream node must skip SNACK entries already marked recovered
	// by a node closer to the destination.
	var forwarded int
	pl := New(1, Defaults(), fakeView{hops: 2}, func(*packet.Packet) bool {
		forwarded++
		return true
	})
	pl.PostRcv(&mac.Frame{Seg: dataPkt(5)})
	a := ackPkt([]packet.SeqRange{{First: 5, Last: 5}})
	a.Ack.Recovered = []packet.SeqRange{{First: 5, Last: 5}}
	pl.PostRcv(&mac.Frame{Seg: a})
	if forwarded != 0 {
		t.Fatal("retransmitted a packet another cache already recovered")
	}
	if pl.Counters().AlreadyRecovered != 1 {
		t.Fatalf("alreadyRecovered = %d", pl.Counters().AlreadyRecovered)
	}
}

func TestCachingDisabledJNC(t *testing.T) {
	cfg := Defaults()
	cfg.CacheEnabled = false
	var forwarded int
	pl := New(1, cfg, fakeView{hops: 2}, func(*packet.Packet) bool {
		forwarded++
		return true
	})
	pl.PostRcv(&mac.Frame{Seg: dataPkt(5)})
	if pl.Cache().Stats().Inserts != 0 {
		t.Fatal("JNC cached a packet")
	}
	a := ackPkt([]packet.SeqRange{{First: 5, Last: 5}})
	pl.PostRcv(&mac.Frame{Seg: a})
	if forwarded != 0 {
		t.Fatal("JNC served a SNACK")
	}
	if packet.RangesContain(a.Ack.Recovered, 5) {
		t.Fatal("JNC rewrote the ACK")
	}
}

func TestUnknownPathLengthConservative(t *testing.T) {
	pl := New(1, Defaults(), fakeView{hops: -1}, nil)
	p := dataPkt(1) // lt=0.2
	fr := &mac.Frame{Seg: p, MaxAttempts: 1}
	pl.PreXmit(fr, mac.LinkInfo{FirstAttempt: true, AttemptCost: 1e-6, LossRate: 0.3, AvailRate: 1})
	// H unknown ⇒ treated as 1 remaining hop ⇒ q = 0.8, m = ceil(log(0.2)/log(0.3)) = 2.
	if fr.MaxAttempts != 2 {
		t.Fatalf("attempts with unknown path = %d, want 2", fr.MaxAttempts)
	}
}

func TestNonJTPSegmentsIgnored(t *testing.T) {
	pl := New(1, Defaults(), fakeView{hops: 2}, nil)
	fr := &mac.Frame{Seg: otherSeg{}, MaxAttempts: 1}
	if pl.PreXmit(fr, mac.LinkInfo{}) != mac.Continue {
		t.Fatal("foreign segment vetoed")
	}
	pl.PostRcv(fr)
	if pl.Cache().Stats().Inserts != 0 {
		t.Fatal("foreign segment cached")
	}
}

type otherSeg struct{}

func (otherSeg) Size() int           { return 10 }
func (otherSeg) Dest() packet.NodeID { return 1 }

// TestPreXmitTargetIgnoresLoad pins Eq (4) as the only per-hop target:
// an idle node and a saturated one with the same loss, tolerance and
// remaining hops grant the same attempts and re-encode the same
// tolerance.
func TestPreXmitTargetIgnoresLoad(t *testing.T) {
	var attempts [2]int
	var tol [2]float64
	for i, avail := range []float64{5, 0.05} {
		pl := New(1, Defaults(), fakeView{hops: 2}, nil)
		p := dataPkt(1)
		fr := &mac.Frame{Seg: p, MaxAttempts: 1}
		pl.PreXmit(fr, mac.LinkInfo{FirstAttempt: true, AttemptCost: 1e-4, LossRate: 0.3, AvailRate: avail})
		attempts[i], tol[i] = fr.MaxAttempts, p.LossTol
	}
	if attempts[0] != 2 || attempts[1] != 2 || tol[0] != tol[1] {
		t.Fatalf("idle: %d attempts, lt %v; saturated: %d attempts, lt %v; want 2 each and equal lt",
			attempts[0], tol[0], attempts[1], tol[1])
	}
}

// TestPluginChainMeetsTolerance runs one packet through a chain of
// plugins, one per hop, each seeing the hops that remain: the attempts
// they grant, with the tolerance each re-encodes by Eq (3) for the next,
// meet the end-to-end tolerance.
func TestPluginChainMeetsTolerance(t *testing.T) {
	cfg := Defaults()
	cfg.MaxAttempts = 50 // uncapped regime: the target must be met exactly
	prop := func(ltRaw float64, hRaw uint8, pRaw float64) bool {
		lt := 0.01 + math.Mod(math.Abs(ltRaw), 0.4)
		h := 1 + int(hRaw%8)
		loss := 0.01 + math.Mod(math.Abs(pRaw), 0.5)
		if math.IsNaN(lt) || math.IsNaN(loss) {
			return true
		}
		p := dataPkt(1)
		p.LossTol = lt
		e2eSuccess := 1.0
		for hop := 0; hop < h; hop++ {
			pl := New(packet.NodeID(hop), cfg, fakeView{hops: h - hop}, nil)
			fr := &mac.Frame{Seg: p, MaxAttempts: 1}
			pl.PreXmit(fr, mac.LinkInfo{FirstAttempt: true, AttemptCost: 1e-6, LossRate: loss, AvailRate: 5})
			e2eSuccess *= 1 - math.Pow(loss, float64(fr.MaxAttempts))
		}
		return 1-e2eSuccess <= lt+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
