package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"github.com/javelen/jtp/internal/cache"
	"github.com/javelen/jtp/internal/channel"
	"github.com/javelen/jtp/internal/mac"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/node"
	"github.com/javelen/jtp/internal/obs"
	"github.com/javelen/jtp/internal/transport/drivers"
)

// pooledCase describes one scenario of the fresh-against-reused guard:
// make returns the scenario for a seed, a new value (and a new telemetry
// registry) on every call.
type pooledCase struct {
	name string
	make func(seed int64) Scenario
}

// cleanChannel is the batch matrix's "clean" channel: lossless, static.
func cleanChannel() *channel.Config {
	c := channel.Defaults()
	c.GoodLoss = 0
	c.Static = true
	return &c
}

// pooledChain is a short chain transfer, the shape of the short_coord
// benchmark's runs.
func pooledChain(proto Protocol, nodes int, seed int64) Scenario {
	return Scenario{
		Name: "pooled", Proto: proto, Topo: Linear, Nodes: nodes, Seconds: 15, Seed: seed,
		Flows: []FlowSpec{{Src: 0, Dst: nodes - 1, StartAt: 1, TotalPackets: 20}},
	}
}

// pooledCases covers every driver on both channels across the
// loss-tolerance and cache axes, plus, per driver, a mobile random
// field, a node that fails and revives, energy budgets, queues that
// overflow and telemetry.
func pooledCases() []pooledCase {
	var cases []pooledCase
	for _, name := range drivers.Names() {
		proto := Protocol(name)
		for _, clean := range []bool{false, true} {
			for _, lt := range []float64{0, 0.2} {
				for _, cacheOff := range []bool{false, true} {
					cases = append(cases, pooledCase{
						name: fmt.Sprintf("%s/clean=%t/lossTol=%g/cacheOff=%t", proto, clean, lt, cacheOff),
						make: func(seed int64) Scenario {
							sc := pooledChain(proto, 4, seed)
							sc.Flows[0].LossTolerance = lt
							if clean {
								sc.Channel = cleanChannel()
							}
							if cacheOff {
								sc.CacheCapacity = -1
							}
							return sc
						},
					})
				}
			}
		}
		cases = append(cases,
			pooledCase{name: string(proto) + "/mobile", make: func(seed int64) Scenario {
				return Scenario{
					Name: "pooled-mobile", Proto: proto, Topo: Random, Nodes: 8, MobilitySpeed: 5,
					Seconds: 20, Seed: seed, CachePolicy: cache.FIFO,
					Flows: []FlowSpec{{Src: -1, Dst: -1, StartAt: 1, TotalPackets: 30, LossTolerance: 0.1}},
				}
			}},
			pooledCase{name: string(proto) + "/nodeDown", make: func(seed int64) Scenario {
				sc := pooledChain(proto, 5, seed)
				sc.Seconds = 25
				sc.Flows[0].TotalPackets = 40
				sc.Events = []NodeEvent{{At: 4, Node: 2, Down: true}, {At: 9, Node: 2}}
				return sc
			}},
			pooledCase{name: string(proto) + "/budgets", make: func(seed int64) Scenario {
				sc := pooledChain(proto, 4, seed)
				sc.Flows[0].TotalPackets = 0
				sc.EnergyBudgets = []float64{0, 0.02, 0.03, 0}
				return sc
			}},
			pooledCase{name: string(proto) + "/queueFull", make: func(seed int64) Scenario {
				sc := pooledChain(proto, 4, seed)
				m := mac.Defaults()
				m.QueueCap = 6
				sc.MAC = &m
				sc.Flows[0] = FlowSpec{Src: 0, Dst: 3, StartAt: 1, InitialRate: 40, MaxRate: 40}
				return sc
			}},
			pooledCase{name: string(proto) + "/telemetry", make: func(seed int64) Scenario {
				sc := pooledChain(proto, 4, seed)
				sc.Obs = obs.New()
				return sc
			}},
		)
	}
	return cases
}

// recordBytes is a run's record as JSON: every exported field, floats
// in their shortest exact form.
func recordBytes(t testing.TB, sc Scenario, run func(Scenario) (*metrics.RunRecord, error)) []byte {
	t.Helper()
	rec, err := run(sc)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatalf("%s: encoding the record: %v", sc.Name, err)
	}
	return b
}

// runFresh runs sc on a network built for it alone: a run with a hook
// never takes a recycled substrate.
func runFresh(sc Scenario) (*metrics.RunRecord, error) {
	return RunWithHooks(sc, Hooks{Network: func(*node.Network) {}})
}

// otherShape returns a scenario no substrate built for sc fits: another
// protocol on a longer chain over the other channel.
func otherShape(sc Scenario) Scenario {
	names := drivers.Names()
	proto := Protocol(names[0])
	for i, n := range names {
		if Protocol(n) == sc.Proto {
			proto = Protocol(names[(i+1)%len(names)])
		}
	}
	o := pooledChain(proto, sc.Nodes+1, sc.Seed+1)
	if sc.Channel == nil {
		o.Channel = cleanChannel()
	}
	return o
}

// runOn runs sc as a pooled run does, on the substrate old (nil builds
// one) instead of the worker's pool, and returns the record and the
// substrate the run used, released as the pool would hold it.
func runOn(t testing.TB, sc Scenario, old *Substrate) ([]byte, *Substrate) {
	t.Helper()
	b, err := build(sc, Hooks{}, old)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	sub := b.sub
	b.pooled = false
	rec, err := json.Marshal(b.Run())
	if err != nil {
		t.Fatalf("%s: encoding the record: %v", sc.Name, err)
	}
	sub.Engine.Clear()
	return rec, sub
}

// requireReusedMatchesFresh runs other, then next, then sc on one chain
// of substrates, and requires sc's record to equal want. A shape miss
// must keep the engine, a shape hit the whole substrate.
func requireReusedMatchesFresh(t *testing.T, want []byte, other, next, sc Scenario) {
	t.Helper()
	_, first := runOn(t, other, nil)
	_, second := runOn(t, next, first)
	if second.Engine != first.Engine {
		t.Fatal("a run after another shape did not reuse the engine")
	}
	got, third := runOn(t, sc, second)
	if third != second {
		t.Fatal("a run after its own shape did not reuse the substrate")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("reused run differs from a fresh build:\n got %s\nwant %s", got, want)
	}
}

// TestPooledRunMatchesFresh is TestResetReproducesFreshEngine one layer
// up: a run on a recycled substrate must produce the record a freshly
// built network produces, byte for byte. The worker first runs a
// scenario of another shape, then one of the same shape with another
// seed, so the run under test follows both a shape change and a dirty
// substrate of its own shape. That sequence runs once through the
// worker pool, as campaigns run, and once on substrates handed over
// explicitly, so the reuse is certain.
func TestPooledRunMatchesFresh(t *testing.T) {
	for _, c := range pooledCases() {
		t.Run(c.name, func(t *testing.T) {
			const seed = 11
			want := recordBytes(t, c.make(seed), runFresh)
			recordBytes(t, otherShape(c.make(seed)), Run)
			recordBytes(t, c.make(seed+100), Run)
			got := recordBytes(t, c.make(seed), Run)
			if !bytes.Equal(got, want) {
				t.Fatalf("pooled run differs from a fresh build:\n got %s\nwant %s", got, want)
			}
			requireReusedMatchesFresh(t, want, otherShape(c.make(seed)), c.make(seed+100), c.make(seed))
		})
	}
}

// fuzzScenario decodes one fuzz input into a scenario: protocol, chain
// or mobile field of 2–8 nodes, channel, loss tolerance, cache policy
// and, optionally, a node that fails and revives.
func fuzzScenario(proto, nodes uint8, clean bool, lossTol, policy uint8, mobile bool, down uint8, seed int64) Scenario {
	names := drivers.Names()
	n := 2 + int(nodes)%7
	sc := pooledChain(Protocol(names[int(proto)%len(names)]), n, seed)
	sc.Flows[0].LossTolerance = float64(lossTol%4) / 10
	if clean {
		sc.Channel = cleanChannel()
	}
	switch policy % 5 {
	case 4:
		sc.CacheCapacity = -1
	default:
		sc.CachePolicy = cache.Policy(policy % 5)
		sc.CacheCapacity = 4 + int(policy)%8
	}
	if mobile {
		sc.Topo, sc.MobilitySpeed = Random, 5
		sc.Flows[0].Src, sc.Flows[0].Dst = -1, -1
	}
	if down&1 == 1 {
		node := int(down>>1) % n
		sc.Events = []NodeEvent{{At: 3, Node: node, Down: true}, {At: 7, Node: node}}
	}
	return sc
}

// FuzzPooledRunMatchesFresh draws two random shapes and requires the
// first's run, on a substrate that ran the second shape and then the
// first shape with another seed, to match the first's fresh run.
func FuzzPooledRunMatchesFresh(f *testing.F) {
	f.Add(uint8(0), uint8(2), false, uint8(1), uint8(0), false, uint8(0), int64(1), uint8(3), uint8(5), true)
	f.Add(uint8(1), uint8(6), true, uint8(2), uint8(4), true, uint8(5), int64(7), uint8(1), uint8(6), false)
	f.Add(uint8(2), uint8(0), false, uint8(0), uint8(2), false, uint8(3), int64(9), uint8(2), uint8(0), false)
	f.Fuzz(func(t *testing.T, proto, nodes uint8, clean bool, lossTol, policy uint8, mobile bool, down uint8, seed int64,
		otherProto, otherNodes uint8, otherMobile bool) {
		mk := func(seed int64) Scenario {
			return fuzzScenario(proto, nodes, clean, lossTol, policy, mobile, down, seed)
		}
		other := fuzzScenario(otherProto, otherNodes, !clean, lossTol, policy+1, otherMobile, 0, seed+1)
		want := recordBytes(t, mk(seed), runFresh)
		requireReusedMatchesFresh(t, want, other, mk(seed+100), mk(seed))
	})
}
