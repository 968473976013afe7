// Command layers is the benchmark's probe program: it times calls into
// each internal package's public functions, single goroutine, and prints
// the medians and one span per probe as JSON. It is the only part of the
// benchmark that imports internal packages (README.md lists the symbols),
// and the driver builds and runs it as a child, so that a later API
// rename can break these probes without taking the end-to-end numbers
// down with them.
//
//	layers -spec <matrix.json> -scratch <dir> [-smoke]
//
// -spec is the matrix file of the workload being traced: the experiments
// and campaign probes run on that workload's own cells and matrix.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/javelen/jtp/internal/cache"
	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/channel"
	"github.com/javelen/jtp/internal/energy"
	"github.com/javelen/jtp/internal/experiments"
	"github.com/javelen/jtp/internal/geom"
	"github.com/javelen/jtp/internal/mac"
	"github.com/javelen/jtp/internal/node"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/routing"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/topology"
	"github.com/javelen/jtp/internal/workload"
)

type spanRec struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

type prober struct {
	t0      time.Time
	scratch string
	// samples is the number of timings a median is taken from; budget
	// caps one probe's total time, because a 4096-node scenario build
	// takes a large fraction of a second (never fewer than 5 samples).
	samples int
	budget  time.Duration
	metrics map[string]float64
	spans   []spanRec
}

// span runs one probe and records its interval.
func (p *prober) span(name string, fn func()) {
	start := time.Since(p.t0)
	fn()
	p.spans = append(p.spans, spanRec{name, ms(start), ms(time.Since(p.t0))})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sample times fn repeatedly and returns the median duration. prep, when
// non-nil, runs untimed before every sample.
func (p *prober) sample(prep, fn func()) time.Duration {
	var ds []time.Duration
	began := time.Now()
	for len(ds) < p.samples && (len(ds) < 5 || time.Since(began) < p.budget) {
		if prep != nil {
			prep()
		}
		start := time.Now()
		fn()
		ds = append(ds, time.Since(start))
	}
	return medianOf(ds)
}

func medianOf(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// perOp times batch calls of fn per sample and returns nanoseconds per call.
func (p *prober) perOp(batch int, fn func()) float64 {
	d := p.sample(nil, func() {
		for i := 0; i < batch; i++ {
			fn()
		}
	})
	return float64(d) / float64(batch)
}

func must(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "layers: %v\n", err)
		os.Exit(1)
	}
}

func main() {
	specPath := flag.String("spec", "", "matrix file of the workload being traced (required)")
	scratch := flag.String("scratch", "", "directory for the files the campaign probes write (required)")
	smoke := flag.Bool("smoke", false, "few samples per probe: for the harness test")
	flag.Parse()
	if *specPath == "" || *scratch == "" {
		fmt.Fprintln(os.Stderr, "layers: -spec and -scratch are required")
		os.Exit(2)
	}
	data, err := os.ReadFile(*specPath)
	must(err)
	spec, err := experiments.ParseBatchSpec(data)
	must(err)
	dir, err := os.MkdirTemp(*scratch, "layers-")
	must(err)

	p := &prober{t0: time.Now(), scratch: dir, samples: 25, budget: 1500 * time.Millisecond, metrics: map[string]float64{}}
	if *smoke {
		p.samples, p.budget = 5, 200*time.Millisecond
	}
	p.span("sim", p.simProbes)
	p.span("mac", p.macProbe)
	p.span("channel", p.channelProbe)
	p.span("node", p.nodeProbe)
	p.span("topology", p.topologyProbe)
	p.span("routing", p.routingProbes)
	p.span("packet", p.packetProbe)
	p.span("cache", p.cacheProbe)
	p.span("workload", func() { p.workloadProbe(spec) })
	p.span("experiments", func() { p.experimentsProbe(spec) })
	p.span("campaign", func() { p.campaignProbes(spec) })

	out, err := json.Marshal(struct {
		Metrics map[string]float64 `json:"metrics"`
		Spans   []spanRec          `json:"spans"`
	}{p.metrics, p.spans})
	must(err)
	os.RemoveAll(dir)
	fmt.Println(string(out))
}

// simProbes: Engine.Reset on a warmed engine, and the steady-state
// Schedule + RunFor path with 64 events pending.
func (p *prober) simProbes() {
	eng := sim.NewEngine(1)
	var fn sim.Handler
	fired := 0
	fn = func() { fired++; eng.Schedule(sim.Millisecond, fn) }
	arm := func() {
		for i := 0; i < 64; i++ {
			eng.Schedule(sim.Millisecond, fn)
		}
		eng.RunFor(100 * sim.Millisecond)
	}
	seed := int64(1)
	p.metrics["sim.reset_us"] = us(p.sample(arm, func() { seed++; eng.Reset(seed) }))

	arm() // reach the slab's high-water mark
	fired = 0
	eng.RunFor(100 * sim.Millisecond)
	perCall := fired // 64 handlers re-arming every millisecond
	d := p.sample(nil, func() { eng.RunFor(100 * sim.Millisecond) })
	p.metrics["sim.schedule_fire_ns"] = float64(d) / float64(perCall)
	p.metrics["sim.schedule_fire_allocs"] = testing.AllocsPerRun(50, func() { eng.RunFor(10 * sim.Millisecond) })
}

// macProbe: per-slot TDMA processing on an idle 8-node chain.
func (p *prober) macProbe() {
	b, err := experiments.BuildScenario(experiments.Scenario{
		Name: "probe-mac-slot", Proto: experiments.JTP, Topo: experiments.Linear,
		Nodes: 8, Seconds: 3600, Seed: 1,
		Flows: []experiments.FlowSpec{{Src: 0, Dst: 7, StartAt: 3500}},
	}, experiments.Hooks{})
	must(err)
	eng := b.Engine()
	eng.RunUntil(sim.Time(10 * sim.Second)) // warm slabs, frames, link stats
	slots := float64(10*sim.Second) / float64(mac.Defaults().SlotDuration)
	d := p.sample(nil, func() { eng.RunFor(10 * sim.Second) })
	p.metrics["mac.idle_slot_ns"] = float64(d) / slots
	p.metrics["mac.idle_slot_allocs"] = testing.AllocsPerRun(20, func() { eng.RunFor(sim.Second) })
}

// channelProbe: one Gilbert-Elliott loss trial on a live link.
func (p *prober) channelProbe() {
	ch := channel.New(sim.NewEngine(1), channel.Defaults())
	ch.TransmitOK(1, 2)
	p.metrics["channel.transmit_ok_ns"] = p.perOp(10000, func() { ch.TransmitOK(1, 2) })
}

func newNetwork(topo *topology.Topology) *node.Network {
	return node.New(sim.NewEngine(1), node.Config{
		Topo:    topo,
		Channel: channel.Defaults(),
		MAC:     mac.Defaults(),
		Routing: routing.Defaults(),
		Energy:  energy.JAVeLEN(),
	})
}

// nodeProbe: the incremental link-state patch when one node of a
// 1024-node grid drifts within its spatial-hash cell.
func (p *prober) nodeProbe() {
	topo := topology.GridN(1024, 80)
	nw := newNetwork(topo)
	id := packet.NodeID(500)
	base := topo.Position(id)
	step := 0
	move := func() {
		step++
		// A <= 0.5 m jiggle on an 80 m lattice with 100 m range keeps the
		// node in its cell and every neighbor set unchanged.
		d := 0.25 * float64(step%3)
		topo.SetPosition(id, geom.Point{X: base.X + d, Y: base.Y + d})
		nw.Version()
	}
	nw.Version() // build the snapshot
	move()       // warm the delta buffers
	p.metrics["node.patch_within_cell_us"] = p.perOp(100, move) / 1e3
	p.metrics["node.patch_within_cell_allocs"] = testing.AllocsPerRun(100, move)
}

// topologyProbe: generating a connected 2048-node random field.
func (p *prober) topologyProbe() {
	seed := int64(0)
	d := p.sample(nil, func() {
		seed++
		topology.Random(2048, channel.Defaults().Range, rand.New(rand.NewSource(seed)), 0)
	})
	p.metrics["topology.rgg_generate_ms"] = ms(d)
}

// routingProbes: a cold Cache.Fill right after a link-state version bump
// on a 4096-node grid, and a memoized Router.Refresh inside an unchanged
// version on a 64-node grid.
func (p *prober) routingProbes() {
	nw := newNetwork(topology.GridN(4096, 80))
	views := nw.Views()
	var v *routing.View
	src := packet.NodeID(2048)
	v = views.Fill(v, src, 0)
	down := false
	bump := func() { down = !down; nw.SetDown(1, down) }
	p.metrics["routing.cold_fill_us"] = us(p.sample(bump, func() { v = views.Fill(v, src, 0) }))

	small := newNetwork(topology.GridN(64, 80))
	small.Start()
	small.Engine().RunFor(2 * sim.Second) // every router refreshed at least once
	r := small.Node(17).Router
	r.Refresh()
	p.metrics["routing.cached_refresh_ns"] = p.perOp(1000, r.Refresh)
	p.metrics["routing.cached_refresh_allocs"] = testing.AllocsPerRun(100, r.Refresh)
}

// packetProbe: AppendEncode + DecodeInto of a worst-case feedback packet
// with reused buffers.
func (p *prober) packetProbe() {
	src := &packet.Packet{
		Type: packet.Ack, Src: 1, Dst: 2, Flow: 3, PayloadLen: 64,
		AvailRate: 2.5, LossTol: 0.1,
		Ack: &packet.AckInfo{
			CumAck: 100, Rate: 3.5, EnergyBudget: 0.02, SenderTimeout: 10,
			Snack:     []packet.SeqRange{{First: 101, Last: 105}, {First: 110, Last: 112}},
			Recovered: []packet.SeqRange{{First: 107, Last: 108}},
		},
	}
	src.Quantize()
	buf := make([]byte, 0, 512)
	var dst packet.Packet
	round := func() {
		b, err := src.AppendEncode(buf[:0])
		must(err)
		_, err = dst.DecodeInto(b)
		must(err)
	}
	round()
	p.metrics["packet.codec_roundtrip_ns"] = p.perOp(5000, round)
	p.metrics["packet.codec_roundtrip_allocs"] = testing.AllocsPerRun(500, round)
}

// cacheProbe: mixed insert/lookup on an LRU cache at Table 1 capacity.
func (p *prober) cacheProbe() {
	c := cache.New(1000)
	pkt := &packet.Packet{Type: packet.Data, Src: 1, Dst: 2, Flow: 1, PayloadLen: 772}
	seq := uint32(0)
	op := func() {
		seq++
		pkt.Seq = seq
		c.Insert(pkt)
		c.Lookup(cache.Key{Src: 1, Dst: 2, Flow: 1, Seq: seq / 2})
	}
	for i := 0; i < 2000; i++ {
		op() // fill to capacity so every insert evicts
	}
	p.metrics["cache.insert_lookup_ns"] = p.perOp(5000, op)
}

// workloadProbe: generating the matrix's own workload specs (0 for a
// matrix without a workloads axis).
func (p *prober) workloadProbe(spec *experiments.BatchSpec) {
	p.metrics["workload.generate_ms"] = 0
	if len(spec.Workloads) == 0 {
		return
	}
	seed := int64(0)
	d := p.sample(nil, func() {
		seed++
		for i := range spec.Workloads {
			_, err := workload.Generate(&spec.Workloads[i], seed)
			must(err)
		}
	})
	p.metrics["workload.generate_ms"] = ms(d)
}

// medianCell builds the scenario of the matrix's median-size cell the way
// `jtpsim batch` does (first protocol, median size and speed, default
// cache and channel). The program's own cell-to-scenario function is not
// exported, and the probes stay outside the program.
func medianCell(spec *experiments.BatchSpec, seed int64) (experiments.Scenario, error) {
	proto := experiments.Protocol(spec.Protocols[0])
	speed := spec.MobilitySpeeds[len(spec.MobilitySpeeds)/2]
	if n := len(spec.Workloads); n > 0 {
		g, err := workload.Generate(&spec.Workloads[n/2], seed)
		if err != nil {
			return experiments.Scenario{}, err
		}
		sc := experiments.FromWorkload(g, proto)
		sc.MobilitySpeed = speed
		return sc, nil
	}
	nodes := spec.Nodes[len(spec.Nodes)/2]
	topo := experiments.Linear
	if spec.Topology == "random" {
		topo = experiments.Random
	}
	flows := make([]experiments.FlowSpec, spec.Flows)
	for i := range flows {
		f := experiments.FlowSpec{Src: -1, Dst: -1, StartAt: *spec.Warmup + float64(i)*10, TotalPackets: spec.TotalPackets}
		if topo == experiments.Linear {
			f.Src, f.Dst = 0, nodes-1
			if i%2 == 1 {
				f.Src, f.Dst = nodes-1, 0
			}
		}
		flows[i] = f
	}
	return experiments.Scenario{
		Name: spec.Name, Proto: proto, Topo: topo, Nodes: nodes,
		LinearSpacing: spec.LinearSpacing, MobilitySpeed: speed,
		Seconds: spec.Seconds, Seed: seed, Flows: flows,
	}, nil
}

// experimentsProbe: BuildScenario against BuiltScenario.Run on the
// workload's median-size cell.
func (p *prober) experimentsProbe(spec *experiments.BatchSpec) {
	var builds, runs []time.Duration
	began := time.Now()
	for i := 0; len(builds) < p.samples && (i < 5 || time.Since(began) < 2*p.budget); i++ {
		sc, err := medianCell(spec, int64(i+1))
		must(err)
		t0 := time.Now()
		b, err := experiments.BuildScenario(sc, experiments.Hooks{})
		must(err)
		t1 := time.Now()
		b.Run()
		builds, runs = append(builds, t1.Sub(t0)), append(runs, time.Since(t1))
	}
	build, run := ms(medianOf(builds)), ms(medianOf(runs))
	p.metrics["experiments.build_ms"] = build
	p.metrics["experiments.run_ms"] = run
	p.metrics["experiments.build_share"] = build / (build + run)
}

// campaignProbes: the fold, CSV, checkpoint, shard-file and merge paths
// of the campaign engine over the workload's own matrix, with a canned
// sample in place of a simulation.
func (p *prober) campaignProbes(spec *experiments.BatchSpec) {
	canned := campaign.Sample{
		"energy_per_bit": 1.1e-6, "goodput_bps": 1.4e4, "delivered_kB": 8269,
		"source_rtx": 195, "cache_hits": 542, "queue_drops": 3, "retry_drops": 757,
	}
	fn := func(context.Context, campaign.RunSpec) (campaign.Sample, error) { return canned, nil }
	ctx := context.Background()
	m := spec.Matrix()

	var rep *campaign.Report
	d := p.sample(nil, func() {
		var err error
		rep, err = campaign.Execute(ctx, m, campaign.Options{Workers: 1}, fn)
		must(err)
	})
	p.metrics["campaign.fold_us_per_run"] = us(d) / float64(m.NumRuns())
	p.metrics["campaign.csv_ms"] = ms(p.sample(nil, func() { _ = rep.CSV() }))

	// One checkpoint per fold at one run per cell: the difference to the
	// same execution without checkpoints, over the number of writes.
	one := m
	one.Runs = 1
	ck := filepath.Join(p.scratch, "probe.ck.json")
	bare := p.sample(nil, func() {
		_, err := campaign.Execute(ctx, one, campaign.Options{Workers: 1}, fn)
		must(err)
	})
	with := p.sample(func() { os.Remove(ck) }, func() {
		_, err := campaign.Execute(ctx, one, campaign.Options{
			Workers: 1, Checkpoint: ck, CheckpointEvery: 1, CheckpointInterval: time.Hour,
		}, fn)
		must(err)
	})
	writes := float64(one.NumRuns() + 1) // every fold, plus the final one
	p.metrics["campaign.checkpoint_write_ms"] = max(0, ms(with-bare)/writes)
	p.metrics["campaign.checkpoint_bytes"] = fileSize(ck)

	// The canned report split 8 ways, as the coordinator does.
	const shards = 8
	reps := make([]*campaign.Report, shards)
	paths := make([]string, shards)
	for i := range reps {
		var err error
		reps[i], err = campaign.Execute(ctx, m, campaign.Options{Workers: 1, Shard: campaign.Shard{Index: i, Of: shards}}, fn)
		must(err)
		paths[i] = filepath.Join(p.scratch, fmt.Sprintf("probe.shard-%d.json", i))
	}
	d = p.sample(nil, func() {
		for i, r := range reps {
			must(campaign.WriteShardFile(paths[i], r))
		}
	})
	p.metrics["campaign.shard_write_ms"] = ms(d) / shards
	total := 0.0
	for _, path := range paths {
		total += fileSize(path)
	}
	p.metrics["campaign.shard_bytes"] = total
	d = p.sample(nil, func() {
		files := make([]*campaign.ShardFile, shards)
		for i, path := range paths {
			var err error
			files[i], err = campaign.ReadShardFile(path)
			must(err)
		}
		_, err := campaign.MergeReports(files...)
		must(err)
	})
	p.metrics["campaign.merge_ms"] = ms(d)
}

func fileSize(path string) float64 {
	st, err := os.Stat(path)
	must(err)
	return float64(st.Size())
}
