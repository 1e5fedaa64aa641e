package sim

import (
	"testing"

	"routerless/internal/rec"
	"routerless/internal/traffic"
)

// BenchmarkSimRunDense is the root BenchmarkSimRun matrix (same rates,
// sub-benchmark names and run budget) on the dense reference walk of
// dense_test.go — the "before" column for BENCH_PR8.json's sparse-vs-dense
// rows. The dense wrappers run with Run's packet recycle hook like the
// production networks, so ns/op and allocs/op both compare.
func BenchmarkSimRunDense(b *testing.B) {
	// cfg and rates copy BenchmarkSimRun and simRunRates in the root
	// bench_test.go, which this package cannot import; change both together.
	cfg := RunConfig{WarmupCycles: 500, MeasureCycles: 2000, DrainCycles: 4000}
	rates := []struct {
		suffix string
		rate   float64
	}{{"-r0.01", 0.01}, {"-r0.02", 0.02}, {"", 0.1}}
	tp := rec.MustGenerate(8)
	for _, row := range rates {
		b.Run("ring8x8"+row.suffix, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src := traffic.NewInjector(8, 8, traffic.UniformRandom, row.rate, 128, 1)
				if Run(denseRing{NewRing(tp, DefaultRingConfig())}, src, cfg).PacketsDone == 0 {
					b.Fatal("no packets delivered")
				}
			}
		})
	}
	for _, row := range rates {
		b.Run("mesh8x8"+row.suffix, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src := traffic.NewInjector(8, 8, traffic.UniformRandom, row.rate, 256, 1)
				if Run(denseMesh{NewMesh(8, 8, MeshN(2))}, src, cfg).PacketsDone == 0 {
					b.Fatal("no packets delivered")
				}
			}
		})
	}
}
