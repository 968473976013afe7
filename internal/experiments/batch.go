package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"github.com/javelen/jtp/internal/cache"
	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/channel"
	"github.com/javelen/jtp/internal/transport"
	"github.com/javelen/jtp/internal/workload"
)

// BatchSpec is the JSON schema behind `jtpsim batch -matrix <file>`: a
// user-declared scenario matrix over the axes the paper sweeps (and a
// few it doesn't). Every axis with more than one value becomes a column
// of the emitted report; single-valued axes pin that parameter.
//
// Example:
//
//	{
//	  "name": "speed-vs-tolerance",
//	  "protocols": ["jtp", "tcp"],
//	  "topology": "random",
//	  "nodes": [15],
//	  "mobilitySpeeds": [0.1, 1, 5],
//	  "lossTolerances": [0, 0.1],
//	  "flows": 5, "runs": 10, "seconds": 1000, "seed": 7
//	}
type BatchSpec struct {
	// Name labels the campaign (default "batch").
	Name string `json:"name"`
	// Protocols axis: any registered transport driver name — see
	// RegisteredProtocols() (default ["jtp"]).
	Protocols []string `json:"protocols"`
	// Topology pins the layout: "linear" (default) or "random".
	// Ignored when Workloads is set.
	Topology string `json:"topology"`
	// Nodes axis: network sizes (default [6]). Ignored when Workloads
	// is set (each workload defines its own node count).
	Nodes []int `json:"nodes"`
	// Workloads axis: generated-scenario specs (internal/workload).
	// When non-empty it replaces the Topology/Nodes/Flows description:
	// the matrix gains a "workload" axis whose values are the spec
	// names, each run regenerates its workload from the run's derived
	// seed, and the run length, flows, transfer sizes and churn all
	// come from the generated scenario (batch Seconds/Flows/
	// TotalPackets do not apply). A non-zero lossTolerances axis value
	// overrides the workload's per-flow tolerance; 0 keeps it.
	Workloads []workload.Spec `json:"workloads"`
	// MobilitySpeeds axis in m/s; 0 = static (default [0]).
	MobilitySpeeds []float64 `json:"mobilitySpeeds"`
	// LossTolerances axis: JTP application loss tolerance in [0,1)
	// (default [0]; ignored by the fully reliable baselines).
	LossTolerances []float64 `json:"lossTolerances"`
	// CachePolicies axis: "lru", "fifo", "random", "energy", or "off"
	// (default ["lru"]).
	CachePolicies []string `json:"cachePolicies"`
	// Channels axis: "default" (Gilbert-Elliott, §6.1.1), "testbed"
	// (stable indoor links, Table 2), or "clean" (lossless, static).
	Channels []string `json:"channels"`
	// Flows is the number of concurrent flows per run (default 2).
	Flows int `json:"flows"`
	// TotalPackets bounds each flow's transfer; 0 = unbounded stream.
	TotalPackets int `json:"totalPackets"`
	// CacheCapacity overrides the 1000-packet caches when > 0.
	CacheCapacity int `json:"cacheCapacity"`
	// Seconds is the virtual run length (default 600).
	Seconds float64 `json:"seconds"`
	// Warmup is when flows start (default 100; 0 is meaningful and
	// means flows start immediately, hence the pointer).
	Warmup *float64 `json:"warmup"`
	// Runs is the number of independent seeds per cell (default 3).
	Runs int `json:"runs"`
	// Seed is the campaign base seed (default 1).
	Seed int64 `json:"seed"`
	// LinearSpacing is the chain spacing in meters (default 80).
	LinearSpacing float64 `json:"linearSpacing"`
}

// ParseBatchSpec decodes and validates a JSON matrix file.
func ParseBatchSpec(data []byte) (*BatchSpec, error) {
	var b BatchSpec
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("batch: parsing matrix: %w", err)
	}
	b.applyDefaults()
	if err := b.validate(); err != nil {
		return nil, err
	}
	return &b, nil
}

// applyDefaults fills unset fields with the documented defaults.
func (b *BatchSpec) applyDefaults() {
	if b.Name == "" {
		b.Name = "batch"
	}
	if len(b.Protocols) == 0 {
		b.Protocols = []string{string(JTP)}
	}
	if b.Topology == "" {
		b.Topology = "linear"
	}
	if len(b.Nodes) == 0 {
		b.Nodes = []int{6}
	}
	if len(b.MobilitySpeeds) == 0 {
		b.MobilitySpeeds = []float64{0}
	}
	if len(b.LossTolerances) == 0 {
		b.LossTolerances = []float64{0}
	}
	if len(b.CachePolicies) == 0 {
		b.CachePolicies = []string{"lru"}
	}
	if len(b.Channels) == 0 {
		b.Channels = []string{"default"}
	}
	if b.Flows <= 0 {
		b.Flows = 2
	}
	if b.Seconds <= 0 {
		b.Seconds = 600
	}
	if b.Warmup == nil {
		w := 100.0
		b.Warmup = &w
	}
	if b.Runs <= 0 {
		b.Runs = 3
	}
	if b.Seed == 0 {
		b.Seed = 1
	}
	for i := range b.Workloads {
		b.Workloads[i].ApplyDefaults()
	}
}

// validate rejects axis values that would panic deep inside a run.
func (b *BatchSpec) validate() error {
	if b.Warmup != nil && *b.Warmup < 0 {
		return fmt.Errorf("batch: negative warmup %g", *b.Warmup)
	}
	for _, p := range b.Protocols {
		if !transport.Registered(p) {
			return fmt.Errorf("batch: unknown protocol %q (registered: %s)",
				p, strings.Join(transport.Names(), "/"))
		}
	}
	switch b.Topology {
	case "linear", "random":
	default:
		return fmt.Errorf("batch: unknown topology %q (want linear/random)", b.Topology)
	}
	for _, n := range b.Nodes {
		if n < 2 {
			return fmt.Errorf("batch: network size %d too small (min 2)", n)
		}
		if n > maxNodes {
			return fmt.Errorf("batch: network size %d too large (max %d, the node id space)", n, maxNodes)
		}
	}
	for _, lt := range b.LossTolerances {
		if lt < 0 || lt >= 1 {
			return fmt.Errorf("batch: loss tolerance %g outside [0,1)", lt)
		}
	}
	for _, sp := range b.MobilitySpeeds {
		if sp < 0 {
			return fmt.Errorf("batch: negative mobility speed %g", sp)
		}
	}
	for _, cp := range b.CachePolicies {
		if _, _, err := parseCachePolicy(cp); err != nil {
			return err
		}
	}
	for _, ch := range b.Channels {
		if _, err := channelProfile(ch); err != nil {
			return err
		}
	}
	if b.TotalPackets < 0 {
		return fmt.Errorf("batch: negative totalPackets %d", b.TotalPackets)
	}
	seen := map[string]bool{}
	for i := range b.Workloads {
		w := &b.Workloads[i]
		if err := w.Validate(); err != nil {
			return fmt.Errorf("batch: workloads[%d]: %w", i, err)
		}
		if seen[w.Name] {
			return fmt.Errorf("batch: workloads[%d]: duplicate name %q", i, w.Name)
		}
		seen[w.Name] = true
	}
	return nil
}

// workloadByName returns the named workload spec (validate guarantees
// names are unique and cells only carry known names).
func (b *BatchSpec) workloadByName(name string) *workload.Spec {
	for i := range b.Workloads {
		if b.Workloads[i].Name == name {
			return &b.Workloads[i]
		}
	}
	return nil
}

// parseCachePolicy maps an axis value to (policy, enabled).
func parseCachePolicy(s string) (cache.Policy, bool, error) {
	switch s {
	case "lru":
		return cache.LRU, true, nil
	case "fifo":
		return cache.FIFO, true, nil
	case "random":
		return cache.Random, true, nil
	case "energy":
		return cache.EnergyAware, true, nil
	case "off":
		return cache.LRU, false, nil
	}
	return 0, false, fmt.Errorf("batch: unknown cache policy %q (want lru/fifo/random/energy/off)", s)
}

// channelProfile maps an axis value to a channel configuration.
func channelProfile(s string) (channel.Config, error) {
	switch s {
	case "default":
		return channel.Defaults(), nil
	case "testbed":
		return channel.Testbed(), nil
	case "clean":
		c := channel.Defaults()
		c.GoodLoss = 0
		c.Static = true
		return c, nil
	}
	return channel.Config{}, fmt.Errorf("batch: unknown channel profile %q (want default/testbed/clean)", s)
}

// Matrix expands the spec into a campaign matrix. Axis order (and hence
// report column order) is fixed: proto, netSize, speed, lossTol,
// cachePolicy, channel. With a workloads axis the netSize axis is
// replaced by the workload-name axis: proto, workload, speed, lossTol,
// cachePolicy, channel. The matrix's Config is a copy of the spec, so
// the campaign fingerprint covers every setting a run reads (seconds,
// flows, warmup, workloads, ...); call it on the defaulted spec with
// its overrides applied, as Execute does.
func (b *BatchSpec) Matrix() campaign.Matrix {
	second := campaign.Axis{Name: "netSize", Values: campaign.Ints(b.Nodes...)}
	if len(b.Workloads) > 0 {
		names := make([]string, len(b.Workloads))
		for i := range b.Workloads {
			names[i] = b.Workloads[i].Name
		}
		second = campaign.Axis{Name: "workload", Values: campaign.Strings(names...)}
	}
	return campaign.Matrix{
		Name: b.Name,
		Axes: []campaign.Axis{
			{Name: "proto", Values: campaign.Strings(b.Protocols...)},
			second,
			{Name: "speed", Values: campaign.Floats(b.MobilitySpeeds...)},
			{Name: "lossTol", Values: campaign.Floats(b.LossTolerances...)},
			{Name: "cachePolicy", Values: campaign.Strings(b.CachePolicies...)},
			{Name: "channel", Values: campaign.Strings(b.Channels...)},
		},
		Runs:     b.Runs,
		BaseSeed: b.Seed,
		Config:   *b,
	}
}

// scenario builds the simulation scenario for one cell and seed.
func (b *BatchSpec) scenario(cell campaign.Cell, seed int64) (Scenario, error) {
	policy, cacheOn, _ := parseCachePolicy(cell.String("cachePolicy"))
	chCfg, _ := channelProfile(cell.String("channel"))

	if wlName := cell.String("workload"); wlName != "" {
		wl := b.workloadByName(wlName)
		if wl == nil {
			return Scenario{}, fmt.Errorf("batch: unknown workload %q in cell", wlName)
		}
		g, err := workload.Generate(wl, seed)
		if err != nil {
			return Scenario{}, err
		}
		sc := FromWorkload(g, Protocol(cell.String("proto")))
		sc.MobilitySpeed = cell.Float("speed")
		sc.Channel = &chCfg
		sc.CacheCapacity = b.CacheCapacity
		sc.CachePolicy = policy
		if !cacheOn {
			sc.CacheCapacity = -1
		}
		if lt := cell.Float("lossTol"); lt > 0 {
			for i := range sc.Flows {
				sc.Flows[i].LossTolerance = lt
			}
		}
		return sc, nil
	}

	n := cell.Int("netSize")
	topo := Linear
	if b.Topology == "random" {
		topo = Random
	}
	flows := make([]FlowSpec, b.Flows)
	for i := range flows {
		f := FlowSpec{
			Src: -1, Dst: -1,
			StartAt:       *b.Warmup + float64(i)*10,
			TotalPackets:  b.TotalPackets,
			LossTolerance: cell.Float("lossTol"),
		}
		if topo == Linear {
			// Alternate end-to-end directions along the chain.
			if i%2 == 0 {
				f.Src, f.Dst = 0, n-1
			} else {
				f.Src, f.Dst = n-1, 0
			}
		}
		flows[i] = f
	}
	sc := Scenario{
		Name:          b.Name,
		Proto:         Protocol(cell.String("proto")),
		Topo:          topo,
		Nodes:         n,
		LinearSpacing: b.LinearSpacing,
		MobilitySpeed: cell.Float("speed"),
		Seconds:       b.Seconds,
		Seed:          seed,
		Flows:         flows,
		Channel:       &chCfg,
		CacheCapacity: b.CacheCapacity,
		CachePolicy:   policy,
	}
	if !cacheOn {
		sc.CacheCapacity = -1
	}
	return sc, nil
}

// Execute runs the campaign under opt, honoring ctx cancellation.
// Individual run failures are recorded per cell, not fatal, so one
// impossible corner of a matrix doesn't waste the rest. Specs
// constructed in code (not via ParseBatchSpec) are defaulted and
// validated here too, so a bad axis value fails loudly instead of
// silently running a different scenario.
func (b *BatchSpec) Execute(ctx context.Context, opt Options) (*campaign.Report, error) {
	b.applyDefaults()
	if err := b.validate(); err != nil {
		return nil, err
	}
	return execute(ctx, b.Matrix(), opt, b.scenario, runRecordSample)
}
