package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("compare: %w", err)
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("compare: %s: %w", path, err)
	}
	return &r, nil
}

// verdict applies one end-to-end bound to a parent value a and a change
// value b. A metric whose own run-to-run range is wider than the bound
// cannot resolve a difference of that size: when the two ranges overlap
// it is reported unresolved, not unchanged.
func verdict(d metricDef, a, b value) string {
	if a.Value == 0 {
		return "unresolved"
	}
	worse := (b.Value - a.Value) / a.Value
	if d.Better == "higher" {
		worse = -worse
	}
	// Spread as the contract's driver takes it: the distance between the
	// quartiles of the repetitions, as a share of their median.
	spread := func(v value) float64 {
		return ratio(quantile(v.Samples, 0.75)-quantile(v.Samples, 0.25), v.Median)
	}
	overlap := a.Min <= b.Max && b.Min <= a.Max
	switch {
	case (spread(a) > d.Bound || spread(b) > d.Bound) && overlap:
		return "unresolved"
	case worse > d.Bound:
		return "regressed"
	}
	return "within"
}

// compareFiles prints, per workload and end-to-end metric, within,
// regressed or unresolved, and identical/differs for every exact count
// and output hash. The exit code is 1 when anything regressed.
func compareFiles(out io.Writer, pathA, pathB string) (int, error) {
	a, err := readResult(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return 0, err
	}
	if a.Smoke || b.Smoke {
		fmt.Fprintln(out, "warning: a -smoke result is on one side; its sizes are not the benchmark's")
	}
	if a.Machine.NumCPU != b.Machine.NumCPU || a.Machine.Par != b.Machine.Par || a.Machine.GoVersion != b.Machine.GoVersion {
		fmt.Fprintf(out, "warning: machines differ: %d CPUs par %d %s vs %d CPUs par %d %s\n",
			a.Machine.NumCPU, a.Machine.Par, a.Machine.GoVersion, b.Machine.NumCPU, b.Machine.Par, b.Machine.GoVersion)
	}
	fmt.Fprintf(out, "a = %s (commit %s, seed %d)\nb = %s (commit %s, seed %d)\n",
		pathA, a.Machine.Commit, a.Machine.Seed, pathB, b.Machine.Commit, b.Machine.Seed)
	regressed := 0
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			fmt.Fprintf(out, "%-14s missing from b\n", wa.Name)
			regressed++
			continue
		}
		for _, d := range endToEnd {
			va, okA := wa.EndToEnd[d.Name]
			vb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(d, va, vb)
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(out, "%-14s %-12s %-10s a %.4f [%.4f..%.4f] b %.4f [%.4f..%.4f] %+.1f%% (bound %g%%)\n",
				wa.Name, d.Name, v, va.Value, va.Min, va.Max, vb.Value, vb.Min, vb.Max,
				100*ratio(vb.Value-va.Value, va.Value), d.Bound*100)
		}
		// failed_share has an absolute bound of 0.
		v := "within"
		if wb.FailedShare > 0 {
			v = "regressed"
			regressed++
		}
		fmt.Fprintf(out, "%-14s %-12s %-10s a %g b %g (bound 0, absolute)\n", wa.Name, "failed_share", v, wa.FailedShare, wb.FailedShare)

		same := func(name string, eq bool) {
			v := "identical"
			if !eq {
				v = "differs"
			}
			fmt.Fprintf(out, "%-14s %-32s %s\n", wa.Name, name, v)
		}
		if a.Machine.Seed != b.Machine.Seed {
			fmt.Fprintf(out, "%-14s seeds differ: counts and output_sha256 are not comparable\n", wa.Name)
			continue
		}
		same("output_sha256", wa.OutputSHA256 == wb.OutputSHA256)
		for _, d := range perLayer {
			va, okA := wa.PerLayer[d.Name]
			vb, okB := wb.PerLayer[d.Name]
			if d.Exact && okA && okB {
				same(d.Name, va.Value == vb.Value)
			}
		}
	}
	if regressed > 0 {
		return 1, nil
	}
	return 0, nil
}
