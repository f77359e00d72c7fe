package tensor

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// BenchmarkTensorKernels times the trainer's three dense products and
// its Adam step at the shapes the DNN search trains: a mini-batch of 16,
// 32 or 64 samples through a layer of k inputs and n outputs, k in {7,
// 12, 24} and n in {2, 6, 13, 24}. MatMul is the forward product
// (batch×k · k×n), TMatMul the weight gradient ((batch×k)ᵀ · batch×n),
// MatMulT backprop's delta·Wᵀ (batch×n · (k×n)ᵀ) and Adam the k×n
// weights' update — once per kernel set the host runs. Each asserts the
// kernels' allocation budget: none. The products run on one worker, so
// that every shape times its kernel: with more, a product above
// 2·parMinFlops (batch 64 through a 24×24 layer) is split over the
// shared pool, whose dispatch allocates 4 times a call.
func BenchmarkTensorKernels(b *testing.B) {
	defer parallel.SetWorkers(parallel.Workers())
	parallel.SetWorkers(1)
	rng := rand.New(rand.NewSource(1))
	for _, batch := range []int{16, 32, 64} {
		for _, k := range []int{7, 12, 24} {
			for _, n := range []int{2, 6, 13, 24} {
				x, w, delta := randMat(rng, batch, k), randMat(rng, k, n), randMat(rng, batch, n)
				out, gradW, back := New(batch, n), New(k, n), New(batch, k)
				m, v := New(k, n), New(k, n)
				s := Adam{Beta1: 0.9, Beta2: 0.999, OneMinusBeta1: 1 - 0.9, OneMinusBeta2: 1 - 0.999, LR: 0.01, BC1: 0.1, BC2: 0.001, Eps: 1e-8}
				ops := []struct {
					name string
					run  func()
				}{
					{"MatMul", func() { MatMul(out, x, w) }},
					{"TMatMul", func() { TMatMul(gradW, x, delta) }},
					{"MatMulT", func() { MatMulT(back, delta, w) }},
					{"Adam", func() { s.Step(w.Data, m.Data, v.Data, gradW.Data) }},
				}
				for _, op := range ops {
					name := fmt.Sprintf("op=%s/batch=%d/k=%d/n=%d", op.name, batch, k, n)
					forEachKernel(func(kernel string) {
						b.Run(name+"/kernel="+kernel, func(b *testing.B) {
							if allocs := testing.AllocsPerRun(10, op.run); allocs != 0 {
								b.Fatalf("%s allocated %.1f times per call, budget 0", op.name, allocs)
							}
							b.ResetTimer()
							for i := 0; i < b.N; i++ {
								op.run()
							}
						})
					})
				}
			}
		}
	}
}
