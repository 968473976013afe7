package experiments

import (
	"context"
	"fmt"
	"testing"
)

// benchFig9Cfg is a reduced Fig 9 sweep (12 cells × 3 runs) sized so a
// single benchmark iteration is seconds, not minutes.
func benchFig9Cfg() Fig9Config {
	return Fig9Config{
		Sizes:     []int{2, 4, 6, 8},
		Runs:      3,
		Seconds:   800,
		Warmup:    100,
		Protocols: []Protocol{JTP, ATP, TCP},
		Seed:      42,
	}
}

// BenchmarkFig9Campaign measures campaign wall-clock at several worker
// counts. On a multi-core host par=4 should be ≥2× faster than par=1
// (the runs are independent CPU-bound simulations); on a single core
// the times converge, and the outputs are identical everywhere.
//
//	go test -bench Fig9Campaign -benchtime 1x ./internal/experiments/
func BenchmarkFig9Campaign(b *testing.B) {
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			opt := workers(par)
			for i := 0; i < b.N; i++ {
				if _, err := Fig9(benchFig9Cfg()).Report(context.Background(), opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatedSecond measures how fast the full stack simulates
// one virtual second of a busy 8-node chain (events, MAC, iJTP, caches).
func BenchmarkSimulatedSecond(b *testing.B) {
	rec := Scenario{
		Name: "bench-stack", Proto: JTP, Topo: Linear,
		// At least 3 s, so both flows start even at b.N = 1.
		Nodes: 8, Seconds: max(float64(b.N), 3), Seed: 1,
		Flows: []FlowSpec{
			{Src: 0, Dst: 7, StartAt: 1},
			{Src: 7, Dst: 0, StartAt: 2},
		},
	}
	b.ResetTimer()
	out := must(Run(rec))
	b.StopTimer()
	if out.TotalEnergy <= 0 && b.N > 30 {
		b.Fatal("stack benchmark did nothing")
	}
}
