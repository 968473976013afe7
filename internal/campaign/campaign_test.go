package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// testMatrix is a 3×4-cell, 5-run matrix whose run function derives all
// output from the spec seed, so any execution schedule must agree.
func testMatrix() Matrix {
	return Matrix{
		Name:     "test",
		Axes:     []Axis{{Name: "proto", Values: Strings("jtp", "atp", "tcp")}, {Name: "nodes", Values: Ints(2, 4, 6, 8)}},
		Runs:     5,
		BaseSeed: 99,
	}
}

// seededRun is a deterministic pseudo-simulation: observables depend
// only on the run seed. A tiny random sleep scrambles completion order
// so parallel schedules genuinely differ between workers.
func seededRun(_ context.Context, spec RunSpec) (Sample, error) {
	r := rand.New(rand.NewSource(spec.Seed))
	time.Sleep(time.Duration(r.Intn(300)) * time.Microsecond)
	return Sample{
		"energy":  r.Float64() * 1e-6,
		"goodput": 1e3 + r.Float64()*1e4,
	}, nil
}

func TestExpandDeterministicOrder(t *testing.T) {
	m := testMatrix()
	specs := m.Expand()
	if len(specs) != 3*4*5 {
		t.Fatalf("expanded %d runs, want 60", len(specs))
	}
	// Cell-major, run-minor, first axis slowest.
	if specs[0].Cell.Key() != "proto=jtp/nodes=2" || specs[0].Run != 0 {
		t.Fatalf("spec 0 = %v %q", specs[0].Run, specs[0].Cell.Key())
	}
	if specs[5].Cell.Key() != "proto=jtp/nodes=4" {
		t.Fatalf("spec 5 cell = %q", specs[5].Cell.Key())
	}
	if specs[59].Cell.Key() != "proto=tcp/nodes=8" || specs[59].Run != 4 {
		t.Fatalf("spec 59 = %v %q", specs[59].Run, specs[59].Cell.Key())
	}
	for i, s := range specs {
		if s.Index != i {
			t.Fatalf("spec %d has Index %d", i, s.Index)
		}
	}
	// Seeds must be distinct across all runs (collision would correlate
	// supposedly independent repetitions).
	seen := map[int64]bool{}
	for _, s := range specs {
		if seen[s.Seed] {
			t.Fatalf("duplicate derived seed %d", s.Seed)
		}
		seen[s.Seed] = true
	}
	// Expansion is reproducible.
	again := m.Expand()
	for i := range specs {
		if specs[i].Seed != again[i].Seed || specs[i].Cell.Key() != again[i].Cell.Key() {
			t.Fatalf("expansion not reproducible at %d", i)
		}
	}
}

// TestWorkerCountInvariance is the engine's core guarantee: the same
// matrix and base seed produce byte-identical aggregate reports no
// matter how many workers execute the runs.
func TestWorkerCountInvariance(t *testing.T) {
	m := testMatrix()
	var baseline []byte
	for _, workers := range []int{1, 2, 8} {
		rep, err := Execute(context.Background(), m, Options{Workers: workers}, seededRun)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Runs != 60 || rep.Failures != 0 {
			t.Fatalf("workers=%d: runs=%d failures=%d", workers, rep.Runs, rep.Failures)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatalf("workers=%d: JSON: %v", workers, err)
		}
		if baseline == nil {
			baseline = js
			continue
		}
		if !bytes.Equal(baseline, js) {
			t.Fatalf("workers=%d: aggregate JSON differs from workers=1:\n%s\n----\n%s",
				workers, baseline, js)
		}
	}
}

func TestCancellationStopsPool(t *testing.T) {
	m := Matrix{
		Name:     "cancel",
		Axes:     []Axis{{Name: "i", Values: Ints(0, 1, 2, 3, 4, 5, 6, 7)}},
		Runs:     100,
		BaseSeed: 1,
	}
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	fn := func(ctx context.Context, spec RunSpec) (Sample, error) {
		if started.Add(1) == 10 {
			cancel()
		}
		// A ctx-aware run: block until cancelled or done quickly.
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		return Sample{"v": float64(spec.Index)}, nil
	}
	done := make(chan struct{})
	var rep *Report
	var err error
	go func() {
		rep, err = Execute(ctx, m, Options{Workers: 4}, fn)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Execute did not return after cancellation (pool deadlock)")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || rep.Runs >= m.NumRuns() {
		t.Fatalf("expected a partial report, got runs=%v", rep.Runs)
	}
}

func TestRunErrorsAndPanicsAreRecorded(t *testing.T) {
	m := Matrix{
		Name:     "errs",
		Axes:     []Axis{{Name: "kind", Values: Strings("ok", "err", "panic")}},
		Runs:     3,
		BaseSeed: 7,
	}
	rep, err := Execute(context.Background(), m, Options{Workers: 3}, func(_ context.Context, spec RunSpec) (Sample, error) {
		switch spec.Cell.String("kind") {
		case "err":
			return nil, fmt.Errorf("boom run %d", spec.Run)
		case "panic":
			panic("kaboom")
		}
		return Sample{"v": 1}, nil
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if rep.Failures != 6 {
		t.Fatalf("failures = %d, want 6", rep.Failures)
	}
	if rep.Err() == nil {
		t.Fatal("Report.Err() = nil with failures present")
	}
	okCell, errCell, panicCell := rep.Cells[0], rep.Cells[1], rep.Cells[2]
	okV := okCell.Running("v")
	if okCell.Failures != 0 || okV.N() != 3 {
		t.Fatalf("ok cell: %+v", okCell)
	}
	// Fold order is ascending, so the first error is run 0's.
	if errCell.FirstError != "boom run 0" {
		t.Fatalf("errCell.FirstError = %q", errCell.FirstError)
	}
	if panicCell.Failures != 3 || panicCell.FirstError == "" {
		t.Fatalf("panic cell: %+v", panicCell)
	}
}

func TestValidateRejectsBadMatrices(t *testing.T) {
	bad := []Matrix{
		{Axes: []Axis{{Name: "", Values: Ints(1)}}},
		{Axes: []Axis{{Name: "a", Values: Ints(1)}, {Name: "a", Values: Ints(2)}}},
		{Axes: []Axis{{Name: "a"}}},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("matrix %d: Validate() = nil, want error", i)
		}
		if _, err := Execute(context.Background(), m, Options{}, seededRun); err == nil {
			t.Errorf("matrix %d: Execute accepted invalid matrix", i)
		}
	}
	if _, err := Execute(context.Background(), testMatrix(), Options{}, nil); err == nil {
		t.Error("Execute accepted nil RunFunc")
	}
}

// TestOnProgressStreamsResultsInOrder: every folded result reaches
// OnProgress once, in ascending run order, at any worker count.
func TestOnProgressStreamsResultsInOrder(t *testing.T) {
	m := testMatrix()
	var indices []int
	_, err := Execute(context.Background(), m, Options{
		Workers: 6,
		OnProgress: func(p Progress) {
			indices = append(indices, p.Spec.Index)
		},
	}, seededRun)
	if err != nil {
		t.Fatal(err)
	}
	if len(indices) != m.NumRuns() {
		t.Fatalf("observed %d results, want %d", len(indices), m.NumRuns())
	}
	for i, idx := range indices {
		if idx != i {
			t.Fatalf("OnProgress out of order at %d: got index %d", i, idx)
		}
	}
}

func TestTableAndCSVShapes(t *testing.T) {
	rep, err := Execute(context.Background(), testMatrix(), Options{Workers: 4}, seededRun)
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Table("t")
	if rows := bytes.Count([]byte(tbl.CSV()), []byte("\n")) - 1; rows != 12 { // less the header
		t.Fatalf("table rows = %d, want 12", rows)
	}
	csv := rep.CSV("energy")
	var lines int
	for _, b := range []byte(csv) {
		if b == '\n' {
			lines++
		}
	}
	if lines != 13 { // header + 12 cells
		t.Fatalf("csv lines = %d, want 13:\n%s", lines, csv)
	}
}
