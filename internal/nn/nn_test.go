package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

func baseConfig() Config {
	return Config{
		Inputs: 2, Hidden: []int{8}, Outputs: 2,
		Activation: ReLU, Optimizer: Adam,
		LearnRate: 0.01, BatchSize: 16, Epochs: 30, Seed: 1,
	}
}

// xorDataset is the classic non-linearly-separable task: a network with a
// hidden layer must solve it; this is the canonical backprop correctness
// check.
func xorDataset(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(n, 2)
	for i := 0; i < n; i++ {
		a, b := rng.Intn(2), rng.Intn(2)
		d.X.Set(i, 0, float64(a)+rng.NormFloat64()*0.1)
		d.X.Set(i, 1, float64(b)+rng.NormFloat64()*0.1)
		d.Y[i] = a ^ b
	}
	return d
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Inputs: 0, Outputs: 2, LearnRate: 1, BatchSize: 1, Epochs: 1},
		{Inputs: 1, Outputs: 1, LearnRate: 1, BatchSize: 1, Epochs: 1},
		{Inputs: 1, Outputs: 2, Hidden: []int{0}, LearnRate: 1, BatchSize: 1, Epochs: 1},
		{Inputs: 1, Outputs: 2, LearnRate: 0, BatchSize: 1, Epochs: 1},
		{Inputs: 1, Outputs: 2, LearnRate: 1, BatchSize: 0, Epochs: 1},
		{Inputs: 1, Outputs: 2, LearnRate: 1, BatchSize: 1, Epochs: 0},
		{Inputs: 1, Outputs: 2, LearnRate: 1, BatchSize: 1, Epochs: 1, L2: -1},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Fatalf("config %d must fail", i)
		}
	}
}

func TestParamCount(t *testing.T) {
	c := Config{Inputs: 7, Hidden: []int{10, 5}, Outputs: 2}
	// 7*10+10 + 10*5+5 + 5*2+2 = 80+55+12 = 147
	if got := c.ParamCount(); got != 147 {
		t.Fatalf("ParamCount = %d, want 147", got)
	}
}

func TestForwardShapesAndSoftmax(t *testing.T) {
	n, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(5, 2)
	probs := n.Forward(x)
	if probs.Rows != 5 || probs.Cols != 2 {
		t.Fatalf("probs shape %dx%d", probs.Rows, probs.Cols)
	}
	for i := 0; i < 5; i++ {
		row := probs.Row(i)
		var sum float64
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("probability %v out of range", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestLearnsXOR(t *testing.T) {
	train := xorDataset(400, 1)
	test := xorDataset(200, 2)
	c := baseConfig()
	n, _ := New(c)
	res, err := n.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss > 0.3 {
		t.Fatalf("XOR final loss %v too high", res.FinalLoss)
	}
	pred := n.Predict(test)
	acc := metrics.FromLabels(test.Y, pred, 2).Accuracy()
	if acc < 0.95 {
		t.Fatalf("XOR accuracy %v < 0.95", acc)
	}
}

func TestSGDAlsoLearns(t *testing.T) {
	train := xorDataset(400, 3)
	c := baseConfig()
	c.Optimizer = SGD
	c.LearnRate = 0.5
	c.Epochs = 60
	n, _ := New(c)
	if _, err := n.Train(train); err != nil {
		t.Fatal(err)
	}
	pred := n.Predict(train)
	acc := metrics.FromLabels(train.Y, pred, 2).Accuracy()
	if acc < 0.9 {
		t.Fatalf("SGD XOR accuracy %v", acc)
	}
}

func TestActivationsAllTrain(t *testing.T) {
	for _, act := range []Activation{ReLU, Sigmoid, Tanh} {
		train := xorDataset(300, 4)
		c := baseConfig()
		c.Activation = act
		c.Epochs = 60
		n, _ := New(c)
		if _, err := n.Train(train); err != nil {
			t.Fatalf("%v: %v", act, err)
		}
		pred := n.Predict(train)
		acc := metrics.FromLabels(train.Y, pred, 2).Accuracy()
		if acc < 0.85 {
			t.Fatalf("activation %v accuracy %v", act, acc)
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	train := xorDataset(100, 5)
	c := baseConfig()
	c.Epochs = 5
	n1, _ := New(c)
	n2, _ := New(c)
	r1, _ := n1.Train(train)
	r2, _ := n2.Train(train)
	if r1.FinalLoss != r2.FinalLoss {
		t.Fatal("training must be deterministic for same seed")
	}
	for li := range n1.Layers {
		for i := range n1.Layers[li].W.Data {
			if n1.Layers[li].W.Data[i] != n2.Layers[li].W.Data[i] {
				t.Fatal("weights must match bit-for-bit")
			}
		}
	}
}

func TestTrainErrors(t *testing.T) {
	n, _ := New(baseConfig())
	wrong := dataset.New(10, 5)
	if _, err := n.Train(wrong); err == nil {
		t.Fatal("feature mismatch must error")
	}
	empty := dataset.New(0, 2)
	if _, err := n.Train(empty); err == nil {
		t.Fatal("empty dataset must error")
	}
}

func TestPredictVecAgreesWithPredict(t *testing.T) {
	train := xorDataset(200, 6)
	n, _ := New(baseConfig())
	if _, err := n.Train(train); err != nil {
		t.Fatal(err)
	}
	preds := n.Predict(train)
	for i := 0; i < 20; i++ {
		if n.PredictVec(train.X.Row(i)) != preds[i] {
			t.Fatalf("PredictVec disagrees at %d", i)
		}
	}
}

func TestL2ShrinksWeights(t *testing.T) {
	train := xorDataset(300, 7)
	c := baseConfig()
	c.Epochs = 40
	free, _ := New(c)
	free.Train(train)
	c.L2 = 0.05
	reg, _ := New(c)
	reg.Train(train)
	var normFree, normReg float64
	for li := range free.Layers {
		for _, w := range free.Layers[li].W.Data {
			normFree += w * w
		}
		for _, w := range reg.Layers[li].W.Data {
			normReg += w * w
		}
	}
	if normReg >= normFree {
		t.Fatalf("L2 should shrink weights: %v vs %v", normReg, normFree)
	}
}

func TestGradientCheck(t *testing.T) {
	// Numerical gradient check on a tiny network: perturb each weight and
	// compare dLoss/dw to the analytic gradient via a single SGD step.
	c := Config{
		Inputs: 3, Hidden: []int{4}, Outputs: 2,
		Activation: Tanh, Optimizer: SGD,
		LearnRate: 1, BatchSize: 8, Epochs: 1, Seed: 9,
	}
	rng := rand.New(rand.NewSource(10))
	d := dataset.New(8, 3)
	for i := 0; i < 8; i++ {
		for j := 0; j < 3; j++ {
			d.X.Set(i, j, rng.NormFloat64())
		}
		d.Y[i] = rng.Intn(2)
	}
	oneHot := d.OneHot(2)

	loss := func(n *Network) float64 {
		probs := n.Forward(d.X)
		var l float64
		for i := 0; i < probs.Rows; i++ {
			for j := 0; j < probs.Cols; j++ {
				if oneHot.At(i, j) > 0 {
					l -= math.Log(math.Max(probs.At(i, j), 1e-12))
				}
			}
		}
		return l / float64(d.Len())
	}

	n, _ := New(c)
	const eps = 1e-5
	// analytic gradient: clone, run one batch step with lr so that
	// delta_w = -lr * grad => grad = (w_before - w_after) / lr
	clone, _ := New(c)
	for li := range n.Layers {
		copy(clone.Layers[li].W.Data, n.Layers[li].W.Data)
		copy(clone.Layers[li].B, n.Layers[li].B)
	}
	x := d.X.Clone()
	y := oneHot.Clone()
	clone.trainBatch(newTrainArena(clone, x.Rows), x, y, nil, 1, nil)

	for li := range n.Layers {
		for wi := 0; wi < len(n.Layers[li].W.Data); wi += 3 { // sample every 3rd weight
			orig := n.Layers[li].W.Data[wi]
			n.Layers[li].W.Data[wi] = orig + eps
			lp := loss(n)
			n.Layers[li].W.Data[wi] = orig - eps
			lm := loss(n)
			n.Layers[li].W.Data[wi] = orig
			numGrad := (lp - lm) / (2 * eps)
			analytic := (orig - clone.Layers[li].W.Data[wi]) / c.LearnRate
			if math.Abs(numGrad-analytic) > 1e-4*(1+math.Abs(numGrad)) {
				t.Fatalf("layer %d weight %d: numeric %v vs analytic %v", li, wi, numGrad, analytic)
			}
		}
	}
}

// Property: Forward output rows are always valid probability
// distributions, for random architectures and inputs.
func TestForwardProbabilityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := Config{
			Inputs:     1 + rng.Intn(5),
			Hidden:     []int{1 + rng.Intn(8)},
			Outputs:    2 + rng.Intn(4),
			Activation: Activation(rng.Intn(3)),
			Optimizer:  SGD,
			LearnRate:  0.1, BatchSize: 4, Epochs: 1, Seed: seed,
		}
		n, err := New(c)
		if err != nil {
			return false
		}
		x := tensor.New(3, c.Inputs)
		x.RandInit(rng, 5)
		probs := n.Forward(x)
		for i := 0; i < probs.Rows; i++ {
			var sum float64
			for _, v := range probs.Row(i) {
				if v < -1e-12 || math.IsNaN(v) {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStringers(t *testing.T) {
	if ReLU.String() != "relu" || Adam.String() != "adam" || SGD.String() != "sgd" {
		t.Fatal("stringers wrong")
	}
	if Activation(9).String() == "" || Optimizer(9).String() == "" {
		t.Fatal("out-of-range stringers must render")
	}
}

func TestDropoutValidation(t *testing.T) {
	c := baseConfig()
	c.Dropout = 1.0
	if _, err := New(c); err == nil {
		t.Fatal("Dropout 1.0 must fail")
	}
	c.Dropout = -0.1
	if _, err := New(c); err == nil {
		t.Fatal("negative Dropout must fail")
	}
}

func TestDropoutStillLearns(t *testing.T) {
	train := xorDataset(400, 11)
	c := baseConfig()
	c.Dropout = 0.2
	c.Epochs = 60
	n, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(train); err != nil {
		t.Fatal(err)
	}
	pred := n.Predict(train)
	acc := metrics.FromLabels(train.Y, pred, 2).Accuracy()
	if acc < 0.9 {
		t.Fatalf("dropout net accuracy %v", acc)
	}
}

func TestDropoutChangesTraining(t *testing.T) {
	train := xorDataset(200, 12)
	c := baseConfig()
	c.Epochs = 5
	plain, _ := New(c)
	plain.Train(train)
	c.Dropout = 0.3
	dropped, _ := New(c)
	dropped.Train(train)
	same := true
	for li := range plain.Layers {
		for i := range plain.Layers[li].W.Data {
			if plain.Layers[li].W.Data[i] != dropped.Layers[li].W.Data[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("dropout must change the training trajectory")
	}
}

func TestDropoutDeterministic(t *testing.T) {
	train := xorDataset(200, 13)
	c := baseConfig()
	c.Dropout = 0.25
	c.Epochs = 5
	n1, _ := New(c)
	n2, _ := New(c)
	r1, _ := n1.Train(train)
	r2, _ := n2.Train(train)
	if r1.FinalLoss != r2.FinalLoss {
		t.Fatal("dropout training must be seed-deterministic")
	}
}
