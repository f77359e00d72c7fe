package tensor_test

// The trainer's test of the AVX2 kernels: it lives here, in an external
// test package, because only this package's tests can switch the
// kernels.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestTrainAVX2BitIdentical: nn.Network.Train ends with bitwise-equal
// weights, biases and loss whether the products and the Adam step run
// the AVX2 kernels or the portable loops, for every activation, both
// optimizers, with and without dropout; the last mini-batch of each
// epoch is a partial one.
func TestTrainAVX2BitIdentical(t *testing.T) {
	if !tensor.HasAVX2() {
		t.Skip("the CPU has no AVX2: the portable loops are the only kernels")
	}
	rng := rand.New(rand.NewSource(51))
	d := dataset.New(101, 7)
	for i := range d.X.Data {
		d.X.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
	}
	for i := range d.Y {
		d.Y[i] = rng.Intn(3)
	}
	train := func(avx2 bool, c nn.Config) (*nn.Network, nn.TrainResult) {
		defer tensor.SetAVX2(avx2)()
		net, err := nn.New(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := net.Train(d)
		if err != nil {
			t.Fatal(err)
		}
		return net, res
	}
	for _, act := range []nn.Activation{nn.ReLU, nn.Sigmoid, nn.Tanh} {
		for _, opt := range []nn.Optimizer{nn.SGD, nn.Adam} {
			for _, dropout := range []float64{0, 0.2} {
				c := nn.Config{
					Inputs: 7, Hidden: []int{13, 6}, Outputs: 3,
					Activation: act, Optimizer: opt, LearnRate: 0.01,
					BatchSize: 16, Epochs: 4, L2: 1e-4, Dropout: dropout, Seed: 7,
				}
				what := fmt.Sprintf("%v/%v/dropout=%v", act, opt, dropout)
				want, wantRes := train(false, c)
				got, gotRes := train(true, c)
				if math.Float64bits(gotRes.FinalLoss) != math.Float64bits(wantRes.FinalLoss) {
					t.Fatalf("%s: final loss %v, portable %v", what, gotRes.FinalLoss, wantRes.FinalLoss)
				}
				for li, l := range want.Layers {
					for name, pair := range map[string][2][]float64{"W": {got.Layers[li].W.Data, l.W.Data}, "B": {got.Layers[li].B, l.B}} {
						for i := range pair[1] {
							if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
								t.Fatalf("%s: layer %d %s[%d] = %v, portable %v", what, li, name, i, pair[0][i], pair[1][i])
							}
						}
					}
				}
			}
		}
	}
}
