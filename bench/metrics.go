package main

// The metric registry. BENCHMARK.json at the repo root lists exactly
// these names, units and directions; bench_test.go keeps the two in step.

// Where a per-layer metric comes from.
const (
	srcT = "T" // counters summed over the traced run's -telemetry lines
	srcP = "P" // -cpuprofile of the traced run, attributed by package
	srcS = "S" // spans recorded by bench/layers around public calls
	srcC = "C" // the coordinator run itself (short_coord only)
	srcD = "D" // derived by the driver from two of its own timings
)

// unavailable is reported for a probe metric when bench/layers could not
// be built or run (a later API rename may break it): the end-to-end arm
// must survive that, and -1 cannot be mistaken for a measurement.
const unavailable = -1

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Source and Exact are not part of BENCHMARK.json. Exact marks a
	// count that repeats bit for bit on one machine, which -compare
	// reports as identical/differs instead of applying a bound.
	Source string `json:"-"`
	Exact  bool   `json:"-"`
}

// endToEnd are the metrics a user of jtpsim sees, with the share of the
// parent's value by which each may worsen. The issue asked for 10%, 10%,
// 15% and 30%; every bound is the contract's maximum instead, because the
// measured run-to-run spread on the recorded machine leaves no room for
// less (README "Sizes and noise"). failed_share is kept out of this list
// because the contract wants metrics that are never 0: it is reported as
// failed/attempted, and -compare holds it to 0 absolutely.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

func share(name, src string) metricDef {
	return metricDef{Name: name, Unit: "share", Better: "lower", Source: src}
}

func count(name string) metricDef {
	return metricDef{Name: name, Unit: "count", Better: "lower", Source: srcT, Exact: true}
}

func probe(name, unit string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: "lower", Source: srcS}
}

func higher(d metricDef) metricDef { d.Better = "higher"; return d }

func exact(d metricDef) metricDef { d.Exact = true; return d }

// perLayer are the single-layer metrics; layers are the package names.
var perLayer = []metricDef{
	share("sim.cpu_share", srcP),
	count("sim.events_fired"),
	count("sim.heap_depth_hwm"),
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower", Source: srcT},
	probe("sim.reset_us", "us"),
	probe("sim.schedule_fire_ns", "ns"),
	probe("sim.schedule_fire_allocs", "allocs"),

	share("mac.cpu_share", srcP),
	count("mac.tx_attempts"),
	higher(exact(share("mac.tx_success_share", srcT))),
	count("mac.retries"),
	count("mac.drops"),
	count("mac.queue_depth_hwm"),
	probe("mac.idle_slot_ns", "ns"),
	probe("mac.idle_slot_allocs", "allocs"),

	share("channel.cpu_share", srcP),
	probe("channel.transmit_ok_ns", "ns"),

	share("node.cpu_share", srcP),
	count("node.link_state_versions"),
	count("node.linkstate_rows_patched"),
	count("node.linkstate_full_rebuilds"),
	count("node.drops_no_route"),
	probe("node.patch_within_cell_us", "us"),
	probe("node.patch_within_cell_allocs", "allocs"),

	share("topology.cpu_share", srcP),
	probe("topology.rgg_generate_ms", "ms"),

	share("routing.cpu_share", srcP),
	count("routing.bfs_computes"),
	count("routing.fills"),
	higher(exact(share("routing.cache_hit_share", srcT))),
	count("routing.cache_evictions"),
	probe("routing.cold_fill_us", "us"),
	probe("routing.cached_refresh_ns", "ns"),
	probe("routing.cached_refresh_allocs", "allocs"),

	share("mobility.cpu_share", srcP),

	share("packet.cpu_share", srcP),
	count("packet.pool_gets"),
	exact(share("packet.pool_miss_share", srcT)),
	probe("packet.codec_roundtrip_ns", "ns"),
	probe("packet.codec_roundtrip_allocs", "allocs"),

	share("cache.cpu_share", srcP),
	share("ijtp.cpu_share", srcP),
	count("cache.inserts"),
	higher(count("cache.hits")),
	count("cache.evictions"),
	higher(count("ijtp.cache_served")),
	count("ijtp.energy_drops"),
	probe("cache.insert_lookup_ns", "ns"),

	share("transport.cpu_share", srcP),
	{Name: "transport.jtp.run_ms_p50", Unit: "ms", Better: "lower", Source: srcT},
	{Name: "transport.atp.run_ms_p50", Unit: "ms", Better: "lower", Source: srcT},
	{Name: "transport.tcp.run_ms_p50", Unit: "ms", Better: "lower", Source: srcT},

	{Name: "energy.tx_nj", Unit: "nJ", Better: "lower", Source: srcT, Exact: true},
	{Name: "energy.rx_nj", Unit: "nJ", Better: "lower", Source: srcT, Exact: true},

	probe("workload.generate_ms", "ms"),

	share("experiments.cpu_share", srcP),
	probe("experiments.build_ms", "ms"),
	probe("experiments.run_ms", "ms"),
	probe("experiments.build_share", "share"),
	{Name: "experiments.run_ms_p50", Unit: "ms", Better: "lower", Source: srcT},
	{Name: "experiments.run_ms_phi", Unit: "ms", Better: "lower", Source: srcT},

	share("campaign.cpu_share", srcP),
	probe("campaign.fold_us_per_run", "us"),
	probe("campaign.csv_ms", "ms"),
	probe("campaign.checkpoint_write_ms", "ms"),
	probe("campaign.checkpoint_bytes", "B"),
	probe("campaign.shard_write_ms", "ms"),
	probe("campaign.shard_bytes", "B"),
	probe("campaign.merge_ms", "ms"),

	{Name: "coordinator.overhead_s", Unit: "s", Better: "lower", Source: srcC},
	{Name: "coordinator.dir_bytes", Unit: "B", Better: "lower", Source: srcC},
	{Name: "coordinator.cli_merge_ms", Unit: "ms", Better: "lower", Source: srcC},
	{Name: "coordinator.shard_restarts", Unit: "count", Better: "lower", Source: srcC},

	share("stats.cpu_share", srcP),
	share("runtime.cpu_share", srcP),
	share("runtime.alloc_cpu_share", srcP),
	// Not in the issue's list: samples whose only internal frames are in
	// packages that own no layer above (metrics rendering the CSV under
	// the CLI, say), so that the cpu_share metrics partition the profile
	// and sum to 1.
	share("other.cpu_share", srcP),

	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Source: srcD},
}

// cpuShareLayers are the layers whose cpu_share metrics partition the
// profile. runtime.alloc_cpu_share cuts across them and is not a part.
var cpuShareLayers = []string{
	"sim", "mac", "channel", "node", "topology", "routing", "mobility", "packet",
	"cache", "ijtp", "transport", "experiments", "campaign", "stats", "runtime", "other",
}

// layerOfPackage maps a directory under internal/ to the layer whose
// cpu_share it counts towards; "" for a helper package (energy, obs, pool,
// metrics, trace, workload, coordinator) whose cost belongs to whichever
// layer called it.
func layerOfPackage(pkg string) string {
	switch pkg {
	case "sim", "mac", "channel", "node", "routing", "mobility", "packet",
		"cache", "ijtp", "experiments", "campaign", "stats":
		return pkg
	case "topology", "geom":
		return "topology"
	case "core", "flipflop", "atp", "tcpsack", "transport":
		return "transport"
	}
	return ""
}

// Result schema ---------------------------------------------------------

// value is one reported metric. For end-to-end metrics Value is the
// estimator the bounds apply to (see README "Sizes and noise") and
// Median/Min/Max/N describe the repetitions it was taken from.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median,omitempty"`
	Min    float64 `json:"min,omitempty"`
	Max    float64 `json:"max,omitempty"`
	N      int     `json:"n,omitempty"`
	// Samples are the repetitions themselves, in the order they ran.
	Samples []float64 `json:"samples,omitempty"`
	Source  string    `json:"source,omitempty"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

type workloadResult struct {
	Name         string           `json:"name"`
	Invocation   string           `json:"invocation"`
	Sims         int              `json:"sims"`
	EventsFired  float64          `json:"events_fired,omitempty"`
	OutputSHA256 string           `json:"output_sha256"`
	Attempted    int              `json:"attempted"`
	Failed       int              `json:"failed"`
	FailedShare  float64          `json:"failed_share"`
	Checks       []check          `json:"checks"`
	EndToEnd     map[string]value `json:"end_to_end,omitempty"`
	PerLayer     map[string]value `json:"per_layer,omitempty"`
	// RunPercentile documents experiments.run_ms_phi: phi = 1 - 10/n.
	RunPercentile *runPercentile `json:"run_percentile,omitempty"`
}

type runPercentile struct {
	N   int     `json:"n"`
	Phi float64 `json:"phi"`
}

type result struct {
	Schema int  `json:"schema"`
	Smoke  bool `json:"smoke"`
	// Validated is always false: the repo holds no machine-readable
	// reference results, so the benchmark checks determinism and sanity
	// of the outputs, not that the model is right.
	Validated bool              `json:"model_validated"`
	Machine   machine           `json:"machine"`
	Workloads []*workloadResult `json:"workloads"`
}

func (r *result) workload(name string) *workloadResult {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func (r *result) correct() bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 {
			return false
		}
		for _, c := range w.Checks {
			if !c.OK {
				return false
			}
		}
	}
	return true
}
