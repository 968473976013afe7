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
