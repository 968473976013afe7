package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// matrixSpec is the JSON schema of `jtpsim batch|coord -matrix`, as
// documented in EXPERIMENTS.md. The driver writes these files and never
// imports the program's own parser: the file format is the interface.
type matrixSpec struct {
	Name           string         `json:"name"`
	Protocols      []string       `json:"protocols"`
	Topology       string         `json:"topology,omitempty"`
	Nodes          []int          `json:"nodes,omitempty"`
	Workloads      []workloadSpec `json:"workloads,omitempty"`
	MobilitySpeeds []float64      `json:"mobilitySpeeds,omitempty"`
	LossTolerances []float64      `json:"lossTolerances,omitempty"`
	CachePolicies  []string       `json:"cachePolicies,omitempty"`
	Channels       []string       `json:"channels,omitempty"`
	Flows          int            `json:"flows,omitempty"`
	TotalPackets   int            `json:"totalPackets,omitempty"`
	Seconds        float64        `json:"seconds,omitempty"`
	Warmup         *float64       `json:"warmup,omitempty"`
	Runs           int            `json:"runs"`
	Seed           int64          `json:"seed"`
}

// workloadSpec is one entry of the matrix's generated-scenario axis.
type workloadSpec struct {
	Name    string  `json:"name"`
	Family  string  `json:"family"`
	Nodes   int     `json:"nodes"`
	Traffic string  `json:"traffic"`
	Flows   int     `json:"flows"`
	Seconds float64 `json:"seconds"`
}

// cells is the number of matrix cells: the product of the axis lengths,
// an unset axis counting as its single default value.
func (m *matrixSpec) cells() int {
	n := len(m.Protocols)
	if len(m.Workloads) > 0 {
		n *= len(m.Workloads)
	} else {
		n *= len(m.Nodes)
	}
	for _, l := range []int{len(m.MobilitySpeeds), len(m.LossTolerances), len(m.CachePolicies), len(m.Channels)} {
		if l > 0 {
			n *= l
		}
	}
	return n
}

// workload is one of the benchmark's four campaigns. Runs per cell is the
// only size knob (ISSUE: never cut virtual seconds or axes); the values
// were set so one repetition takes 2.5-4.5 s with one worker on the 2-core
// sandbox, which the README justifies against the host's noise.
type workload struct {
	Name string
	Why  string
	// Coord drives the campaign through `jtpsim coord` (8 shards, worker
	// processes, checkpoints, merge) instead of plain `jtpsim batch`.
	Coord bool
	// Runs and SmokeRuns are the runs per cell at full and -smoke size.
	Runs, SmokeRuns int
	matrix          func() matrixSpec
}

const coordShards = 8

var workloads = []*workload{
	{
		Name: "static_chain",
		Why:  "Fig 9 linear chains: event kernel and MAC do the work, routing computes once per run",
		Runs: 6, SmokeRuns: 1,
		matrix: func() matrixSpec {
			return matrixSpec{
				Protocols: []string{"jtp", "atp", "tcp"},
				Topology:  "linear",
				Nodes:     []int{4, 5, 6, 7, 8, 9, 10},
				Flows:     2,
				Seconds:   2500,
			}
		},
	},
	{
		Name: "mobile_rgg",
		Why:  "Fig 11 mobile random fields: link-state patching and routing refresh dominate, MAC is minor",
		Runs: 2, SmokeRuns: 1,
		matrix: func() matrixSpec {
			return matrixSpec{
				Protocols:      []string{"jtp", "atp", "tcp"},
				Topology:       "random",
				Nodes:          []int{64, 96},
				MobilitySpeeds: []float64{1, 5},
				Flows:          5,
				Seconds:        600,
			}
		},
	},
	{
		Name: "large_static",
		Why:  "2048-node rgg and 4096-node grid: scenario build (cold routing fill) and memory dominate",
		Runs: 2, SmokeRuns: 1,
		matrix: func() matrixSpec {
			return matrixSpec{
				Protocols: []string{"jtp", "tcp"},
				Workloads: []workloadSpec{
					{Name: "rgg-2048", Family: "rgg", Nodes: 2048, Traffic: "sink", Flows: 64, Seconds: 600},
					{Name: "grid-4096", Family: "grid", Nodes: 4096, Traffic: "pairs", Flows: 64, Seconds: 600},
				},
			}
		},
	},
	{
		Name:  "short_coord",
		Why:   "tens of thousands of 10 s runs through the coordinator: per-run fixed cost, worker spawn, checkpoints, merge",
		Coord: true,
		Runs:  150, SmokeRuns: 4,
		matrix: func() matrixSpec {
			warmup := 1.0
			return matrixSpec{
				Protocols:      []string{"jtp", "jnc", "atp", "tcp"},
				Topology:       "linear",
				Nodes:          []int{3, 4, 5},
				LossTolerances: []float64{0, 0.1, 0.2},
				CachePolicies:  []string{"lru", "off"},
				Channels:       []string{"default", "clean"},
				Flows:          1,
				TotalPackets:   20,
				Seconds:        10,
				Warmup:         &warmup,
			}
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// spec returns the workload's matrix for one benchmark seed. The seed is
// the campaign's base seed, from which the program derives every run's
// seed; the multiplier keeps two workloads of one invocation and two
// neighbouring benchmark seeds on unrelated schedules, and the +1 keeps
// the result off 0, which the matrix format reads as "default".
func (w *workload) spec(seed int64, smoke bool) matrixSpec {
	m := w.matrix()
	m.Name = w.Name
	m.Runs = w.Runs
	if smoke {
		m.Runs = w.SmokeRuns
	}
	m.Seed = seed*1000003 + int64(slices.Index(workloads, w)) + 1
	return m
}

// writeSpec generates the workload's matrix file in dir.
func (w *workload) writeSpec(dir string, seed int64, smoke bool) (string, matrixSpec, error) {
	m := w.spec(seed, smoke)
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", m, fmt.Errorf("encoding %s matrix: %w", w.Name, err)
	}
	path := filepath.Join(dir, w.Name+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", m, fmt.Errorf("writing %s matrix: %w", w.Name, err)
	}
	return path, m, nil
}
