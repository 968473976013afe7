package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one contract run
// measures. With set-up it keeps a run at 26-31 s, so that the contract's
// 4 + 22 x 4 runs and two cold builds fit its 3420 s with a sixth to spare.
const runSeconds = 20

// manifest is the schema of BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []manifestWL  `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []manifestDef `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifestDef is a per-layer entry: no bound.
type manifestDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// wantManifest is BENCHMARK.json as the registry in metrics.go and
// workloads.go defines it.
func wantManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{benchDir},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWL{w.Name, w.Why})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestDef{d.Name, d.Unit, d.Better})
	}
	return m
}

// TestManifestInSync keeps BENCHMARK.json and the registry in step. On a
// mismatch the failure prints the file the registry wants.
func TestManifestInSync(t *testing.T) {
	want := wantManifest()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		js, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("BENCHMARK.json is out of step with the registry; it should read:\n%s", js)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	tight := func(v float64) value {
		return value{Value: v, Median: v, Min: v * 0.99, Max: v * 1.01, N: 5, Samples: []float64{v * 0.99, v, v, v, v * 1.01}}
	}
	wide := func(v float64) value {
		return value{Value: v, Median: v * 1.2, Min: v, Max: v * 1.5, N: 5, Samples: []float64{v, v * 1.1, v * 1.2, v * 1.4, v * 1.5}}
	}
	for _, tc := range []struct {
		name string
		a, b value
		want string
	}{
		{"same", tight(1), tight(1.05), "within"},
		{"slower", tight(1), tight(1.2), "regressed"},
		{"faster", tight(1), tight(0.5), "within"},
		{"noisy and overlapping", wide(1), wide(1.2), "unresolved"},
		{"noisy but disjoint", wide(1), wide(2), "regressed"},
	} {
		if got := verdict(d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSmoke drives the whole harness at -smoke size: the same four
// shapes, a few runs each, one repetition.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs jtpsim")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{
		root: root, seed: 1, smoke: true, par: defaultPar(),
		selected: workloads, reps: 1, setups: 1, untraced: true, traced: true,
	}
	h, err := newHarness(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.cleanup()
	if err := h.run(); err != nil {
		t.Fatal(err)
	}
	res := h.res
	if !res.Smoke {
		t.Error("a smoke result is not marked smoke")
	}
	if err := appendHistory(root, res); err == nil || !strings.Contains(err.Error(), "smoke") {
		t.Errorf("-record accepted a smoke result: %v", err)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the result, want %d", len(res.Workloads), len(workloads))
	}
	for _, w := range res.Workloads {
		if w.Failed != 0 || w.FailedShare != 0 || w.Attempted < 1 {
			t.Errorf("%s: %d of %d runs failed", w.Name, w.Failed, w.Attempted)
		}
		for _, c := range w.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", w.Name, c.Name, c.Detail)
			}
		}
		if len(w.OutputSHA256) != 64 {
			t.Errorf("%s: output_sha256 %q", w.Name, w.OutputSHA256)
		}
		for _, d := range endToEnd {
			v, ok := w.EndToEnd[d.Name]
			if !ok || !(v.Value > 0) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", w.Name, d.Name, v)
			}
		}
		shares := 0.0
		for _, d := range perLayer {
			v, ok := w.PerLayer[d.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s = %+v", w.Name, d.Name, v)
			}
			if d.Source == srcS && v.Value == unavailable {
				t.Errorf("%s: probe metric %s is unavailable: bench/layers failed", w.Name, d.Name)
			}
		}
		for _, layer := range cpuShareLayers {
			shares += w.PerLayer[layer+".cpu_share"].Value
		}
		if math.Abs(shares-1) > 0.02 {
			t.Errorf("%s: cpu shares sum to %.4f, want 1 +- 0.02", w.Name, shares)
		}
		if line, err := contractLine(w, true); err != nil || !strings.HasPrefix(line, `{"correct":true,`) {
			t.Errorf("%s: contract line %q, %v", w.Name, line, err)
		}
	}
	if sc := res.workload("short_coord"); sc != nil {
		for _, name := range []string{"coordinator.dir_bytes", "coordinator.cli_merge_ms", "campaign.checkpoint_write_ms"} {
			if !(sc.PerLayer[name].Value > 0) {
				t.Errorf("short_coord: %s = %g, want > 0", name, sc.PerLayer[name].Value)
			}
		}
	}

	// The byte-identity check must trip when one repetition is given a
	// different seed, and hold when it is not.
	st := h.states[0]
	same := []campaignRun{h.campaign(st, false, false), h.campaign(st, false, false)}
	if c := identical("same seed", same); !c.OK {
		t.Errorf("two runs of one seed differ: %s", c.Detail)
	}
	other := h.campaign(st, false, false, "-seed", "987654321")
	if !other.ok {
		t.Fatalf("run with another seed failed: %s", other.detail)
	}
	if c := identical("other seed", []campaignRun{same[0], other}); c.OK {
		t.Error("the byte-identity check passed two different seeds")
	}

	spans := h.tr.finish()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for _, s := range spans {
		if s.EndMS < s.StartMS || s.SelfMS < -1 {
			t.Errorf("span %s: start %.3f end %.3f self %.3f", s.Name, s.StartMS, s.EndMS, s.SelfMS)
		}
	}
}
