package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// sourceMismatch draws the same sequence from a Rand over source and
// from one over math/rand's own source, both seeded with seed, and
// describes the first difference ("" if none). It reseeds both midway,
// as Engine.Reset does to a used engine.
func sourceMismatch(seed int64) string {
	src := new(source)
	src.Seed(seed)
	got, want := rand.New(src), rand.New(rand.NewSource(seed))
	for i := 0; i < 3000; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			return fmt.Sprintf("seed %d: Uint64 draw %d is %#x, want %#x", seed, i, g, w)
		}
	}
	shuffled := func(r *rand.Rand) any {
		a := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		r.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		return a
	}
	draws := []struct {
		name string
		draw func(*rand.Rand) any
	}{
		{"Int63", func(r *rand.Rand) any { return r.Int63() }},
		{"Int31n", func(r *rand.Rand) any { return r.Int31n(1000) }},
		{"Intn", func(r *rand.Rand) any { return r.Intn(1 << 40) }},
		{"Float64", func(r *rand.Rand) any { return r.Float64() }},
		{"ExpFloat64", func(r *rand.Rand) any { return r.ExpFloat64() }},
		{"NormFloat64", func(r *rand.Rand) any { return r.NormFloat64() }},
		{"Perm", func(r *rand.Rand) any { return r.Perm(10) }},
		{"Shuffle", shuffled},
	}
	for pass := 0; pass < 2; pass++ {
		for _, d := range draws {
			for i := 0; i < 3; i++ {
				if g, w := d.draw(got), d.draw(want); !reflect.DeepEqual(g, w) {
					return fmt.Sprintf("seed %d, pass %d: %s draw %d is %v, want %v", seed, pass, d.name, i, g, w)
				}
			}
		}
		got.Seed(seed)
		want.Seed(seed)
	}
	return ""
}

// TestSourceMatchesMathRand pins source to math/rand's generator, bit for
// bit, over the seed normalisation's edge cases and 2,000 random seeds.
// It compares against the installed toolchain, so a change to math/rand
// fails here rather than moving every golden.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 89482311, lcgMod, -lcgMod, 1 << 31, math.MinInt64, math.MaxInt64,
	}
	r := rand.New(rand.NewSource(20071210))
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(r.Uint64()), r.Int63n(2*lcgMod)-lcgMod)
	}
	for _, seed := range seeds {
		if msg := sourceMismatch(seed); msg != "" {
			t.Fatal(msg)
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, 89482311, lcgMod, math.MinInt64, math.MaxInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if msg := sourceMismatch(seed); msg != "" {
			t.Fatal(msg)
		}
	})
}

// BenchmarkSeed compares one seeding of source with math/rand's.
func BenchmarkSeed(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source
	}{{"source", new(source)}, {"math/rand", rand.NewSource(1)}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.src.Seed(int64(i))
			}
		})
	}
}
