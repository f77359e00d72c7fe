// Package nn implements the dense feed-forward neural networks Homunculus
// searches over: configurable hidden layers, ReLU/sigmoid/tanh activations,
// softmax cross-entropy output, mini-batch SGD and Adam, and L2 weight
// decay. It replaces the Keras/TensorFlow training stage of the paper
// (§3.2.4) — the optimization core treats it as the black box that turns a
// hyperparameter configuration plus a dataset into a test metric.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/tensor"
)

// Activation selects a hidden-layer nonlinearity.
type Activation = tensor.Activation

// Supported activations.
const (
	ReLU    = tensor.ActReLU
	Sigmoid = tensor.ActSigmoid
	Tanh    = tensor.ActTanh
)

// Optimizer selects the weight-update rule.
type Optimizer int

// Supported optimizers.
const (
	SGD Optimizer = iota
	Adam
)

// String names the optimizer.
func (o Optimizer) String() string {
	switch o {
	case SGD:
		return "sgd"
	case Adam:
		return "adam"
	default:
		return fmt.Sprintf("Optimizer(%d)", int(o))
	}
}

// Config is the hyperparameter set the BO search tunes (§3.2.2:
// "the number of layers and neurons as well as training parameters").
type Config struct {
	Inputs     int
	Hidden     []int // neurons per hidden layer
	Outputs    int   // classes
	Activation Activation
	Optimizer  Optimizer
	LearnRate  float64
	BatchSize  int
	Epochs     int
	L2         float64 // weight decay
	// Dropout is the probability of zeroing each hidden activation during
	// training (inverted dropout: survivors are rescaled, so inference
	// needs no adjustment). 0 disables it.
	Dropout float64
	Seed    int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Inputs <= 0 {
		return fmt.Errorf("nn: Inputs must be positive, got %d", c.Inputs)
	}
	if c.Outputs <= 1 {
		return fmt.Errorf("nn: Outputs must be >= 2 (softmax classifier), got %d", c.Outputs)
	}
	for i, h := range c.Hidden {
		if h <= 0 {
			return fmt.Errorf("nn: hidden layer %d has %d neurons", i, h)
		}
	}
	if c.LearnRate <= 0 {
		return fmt.Errorf("nn: LearnRate must be positive, got %v", c.LearnRate)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("nn: BatchSize must be positive, got %d", c.BatchSize)
	}
	if c.Epochs <= 0 {
		return fmt.Errorf("nn: Epochs must be positive, got %d", c.Epochs)
	}
	if c.Activation < ReLU || c.Activation > Tanh {
		return fmt.Errorf("nn: unknown Activation %v", c.Activation)
	}
	if c.L2 < 0 {
		return fmt.Errorf("nn: L2 must be >= 0, got %v", c.L2)
	}
	if c.Dropout < 0 || c.Dropout >= 1 {
		return fmt.Errorf("nn: Dropout must be in [0,1), got %v", c.Dropout)
	}
	return nil
}

// ParamCount returns the number of trainable parameters (weights+biases)
// the architecture implies — the "# NN Param" column of Table 2.
func (c Config) ParamCount() int {
	dims := append(append([]int{c.Inputs}, c.Hidden...), c.Outputs)
	total := 0
	for i := 0; i < len(dims)-1; i++ {
		total += dims[i]*dims[i+1] + dims[i+1]
	}
	return total
}

// Dense is one fully-connected layer: out = act(in·W + b).
type Dense struct {
	In, Out int
	W       *tensor.Matrix // In×Out
	B       []float64
	Act     Activation
	Final   bool // output layer uses softmax, Act ignored
}

// Network is a trained (or in-training) feed-forward classifier.
type Network struct {
	Config Config
	Layers []*Dense
}

// New builds an untrained network with Glorot-initialized weights.
func New(c Config) (*Network, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	dims := append(append([]int{c.Inputs}, c.Hidden...), c.Outputs)
	n := &Network{Config: c}
	for i := 0; i < len(dims)-1; i++ {
		l := &Dense{
			In:    dims[i],
			Out:   dims[i+1],
			W:     tensor.New(dims[i], dims[i+1]),
			B:     make([]float64, dims[i+1]),
			Act:   c.Activation,
			Final: i == len(dims)-2,
		}
		l.W.GlorotInit(rng, l.In, l.Out)
		n.Layers = append(n.Layers, l)
	}
	return n, nil
}

// batchBuf is a matrix sized for the largest batch whose row count is
// shrunk in place for the (smaller) final batch of an epoch, so no buffer
// is ever reallocated mid-training.
type batchBuf struct {
	mat  *tensor.Matrix
	full []float64 // backing storage at maxRows×Cols capacity
}

func newBatchBuf(maxRows, cols int) batchBuf {
	m := tensor.New(maxRows, cols)
	return batchBuf{mat: m, full: m.Data}
}

// view resizes the buffer to rows and returns the matrix header.
func (b *batchBuf) view(rows int) *tensor.Matrix {
	b.mat.Rows = rows
	b.mat.Data = b.full[:rows*b.mat.Cols]
	return b.mat
}

// trainArena preallocates every buffer one Train call touches — batch
// staging, per-layer activations, dropout draws, backprop deltas, and
// gradients — so the per-batch hot loop is allocation-free in steady
// state. It is built once per Train call and reused across all batches
// and epochs.
type trainArena struct {
	x, y   batchBuf   // staged mini-batch inputs/targets
	outs   []batchBuf // activated output of each layer
	draws  []float64  // one dropout draw per element of the widest hidden layer
	deltas []batchBuf // backprop delta flowing into each layer's output
	gradW  []*tensor.Matrix
	gradB  [][]float64
}

func newTrainArena(n *Network, maxBatch int) *trainArena {
	c := n.Config
	ar := &trainArena{
		x: newBatchBuf(maxBatch, c.Inputs),
		y: newBatchBuf(maxBatch, c.Outputs),
	}
	widest := 0
	for _, l := range n.Layers {
		ar.outs = append(ar.outs, newBatchBuf(maxBatch, l.Out))
		ar.deltas = append(ar.deltas, newBatchBuf(maxBatch, l.Out))
		ar.gradW = append(ar.gradW, tensor.New(l.In, l.Out))
		ar.gradB = append(ar.gradB, make([]float64, l.Out))
		if !l.Final {
			widest = max(widest, l.Out)
		}
	}
	if c.Dropout > 0 {
		ar.draws = make([]float64, maxBatch*widest)
	}
	return ar
}

// Forward computes class probabilities for a batch X (rows = samples).
// The returned matrix is freshly allocated (X.Rows × Outputs).
func (n *Network) Forward(x *tensor.Matrix) *tensor.Matrix {
	cur := x
	for _, l := range n.Layers {
		z := tensor.New(cur.Rows, l.Out)
		tensor.MatMul(z, cur, l.W)
		if l.Final {
			tensor.AddBias(z, l.B)
			tensor.SoftmaxRows(z)
		} else {
			tensor.BiasAct(z, l.B, l.Act)
		}
		cur = z
	}
	return cur
}

// forwardTrain runs the training forward pass into the arena's activation
// buffers. Inverted dropout is folded into the same sweep: each hidden
// layer is masked (zero with probability p, survivors scaled by 1/(1-p))
// immediately after activation, so downstream layers see the dropped
// values the first time — no recompute pass, no fresh allocations. The
// layer's draws are taken first, one per element in row-major order.
func (n *Network) forwardTrain(ar *trainArena, x *tensor.Matrix, rng *rand.Rand) *tensor.Matrix {
	c := n.Config
	cur := x
	for li, l := range n.Layers {
		z := ar.outs[li].view(x.Rows)
		tensor.MatMul(z, cur, l.W)
		if l.Final {
			tensor.AddBias(z, l.B)
			tensor.SoftmaxRows(z)
		} else {
			tensor.BiasAct(z, l.B, l.Act)
			if c.Dropout > 0 && rng != nil {
				draws := ar.draws[:len(z.Data)]
				for i := range draws {
					draws[i] = rng.Float64()
				}
				tensor.Dropout(z.Data, draws, c.Dropout)
			}
		}
		cur = z
	}
	return cur
}

// adamState holds per-layer first/second moment estimates.
type adamState struct {
	mW, vW *tensor.Matrix
	mB, vB []float64
}

// TrainResult summarizes a training run.
type TrainResult struct {
	Epochs    int
	FinalLoss float64
}

// Train fits the network on d with the configured optimizer. It returns
// the final average training loss. Training is deterministic given
// Config.Seed.
func (n *Network) Train(d *dataset.Dataset) (TrainResult, error) {
	if d.Features() != n.Config.Inputs {
		return TrainResult{}, fmt.Errorf("nn: dataset has %d features, network expects %d", d.Features(), n.Config.Inputs)
	}
	if d.Len() == 0 {
		return TrainResult{}, fmt.Errorf("nn: empty training set")
	}
	c := n.Config
	rng := rand.New(rand.NewSource(c.Seed + 1))
	oneHot := d.OneHot(c.Outputs)

	var adamStates []*adamState
	if c.Optimizer == Adam {
		for _, l := range n.Layers {
			adamStates = append(adamStates, &adamState{
				mW: tensor.New(l.In, l.Out), vW: tensor.New(l.In, l.Out),
				mB: make([]float64, l.Out), vB: make([]float64, l.Out),
			})
		}
	}

	maxBatch := c.BatchSize
	if d.Len() < maxBatch {
		maxBatch = d.Len()
	}
	arena := newTrainArena(n, maxBatch)
	idx := tensor.Range(d.Len())
	step := 0
	var lastLoss float64
	for epoch := 0; epoch < c.Epochs; epoch++ {
		tensor.Shuffle(rng, idx)
		var epochLoss float64
		batches := 0
		for start := 0; start < len(idx); start += c.BatchSize {
			end := start + c.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[start:end]
			x := arena.x.view(len(batch))
			y := arena.y.view(len(batch))
			nf, no := c.Inputs, c.Outputs
			for bi, si := range batch {
				copy(x.Data[bi*nf:(bi+1)*nf], d.X.Data[si*nf:(si+1)*nf])
				copy(y.Data[bi*no:(bi+1)*no], oneHot.Data[si*no:(si+1)*no])
			}
			step++
			loss := n.trainBatch(arena, x, y, adamStates, step, rng)
			epochLoss += loss
			batches++
		}
		lastLoss = epochLoss / float64(batches)
	}
	return TrainResult{Epochs: c.Epochs, FinalLoss: lastLoss}, nil
}

// trainBatch performs one forward/backward/update pass and returns the
// batch's mean cross-entropy loss. All intermediate state lives in the
// arena, so a steady-state batch performs no heap allocations.
func (n *Network) trainBatch(ar *trainArena, x, y *tensor.Matrix, adamStates []*adamState, step int, rng *rand.Rand) float64 {
	c := n.Config
	probs := n.forwardTrain(ar, x, rng)
	batch := float64(x.Rows)

	// Cross-entropy loss (with tiny clamp for log stability). Flat scan:
	// row-major layout makes this the same accumulation order as the
	// row-by-row form.
	var loss float64
	for i, yv := range y.Data {
		if yv > 0 {
			loss -= yv * math.Log(math.Max(probs.Data[i], 1e-12))
		}
	}
	loss /= batch

	// Output delta for softmax+CE: (p - y) / batch.
	last := len(n.Layers) - 1
	delta := ar.deltas[last].view(x.Rows)
	for i := range delta.Data {
		delta.Data[i] = (probs.Data[i] - y.Data[i]) / batch
	}

	// Backpropagate layer by layer.
	for li := last; li >= 0; li-- {
		l := n.Layers[li]
		in := x
		if li > 0 {
			in = ar.outs[li-1].view(x.Rows)
		}

		gradW := ar.gradW[li]
		tensor.TMatMul(gradW, in, delta)
		gradB := ar.gradB[li]
		tensor.ColSums(gradB, delta)

		if c.L2 > 0 {
			for i, w := range l.W.Data {
				gradW.Data[i] += c.L2 * w
			}
		}

		// Delta for the previous layer (before this layer's weights change).
		if li > 0 {
			prevOut := ar.outs[li-1].view(x.Rows)
			nextDelta := ar.deltas[li-1].view(x.Rows)
			tensor.MatMulT(nextDelta, delta, l.W)
			tensor.ActivationGrad(nextDelta.Data, prevOut.Data, n.Layers[li-1].Act)
			delta = nextDelta
		}

		switch c.Optimizer {
		case Adam:
			updateAdam(l, gradW, gradB, adamStates[li], c.LearnRate, step)
		default:
			for i := range l.W.Data {
				l.W.Data[i] -= c.LearnRate * gradW.Data[i]
			}
			for i := range l.B {
				l.B[i] -= c.LearnRate * gradB[i]
			}
		}
	}
	return loss
}

const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
)

func updateAdam(l *Dense, gradW *tensor.Matrix, gradB []float64, st *adamState, lr float64, step int) {
	s := tensor.Adam{
		Beta1: adamBeta1, Beta2: adamBeta2,
		OneMinusBeta1: 1 - adamBeta1, OneMinusBeta2: 1 - adamBeta2,
		LR:  lr,
		BC1: 1 - math.Pow(adamBeta1, float64(step)),
		BC2: 1 - math.Pow(adamBeta2, float64(step)),
		Eps: adamEps,
	}
	s.Step(l.W.Data, st.mW.Data, st.vW.Data, gradW.Data)
	s.Step(l.B, st.mB, st.vB, gradB)
}

// Predict returns the arg-max class for each sample of d.
func (n *Network) Predict(d *dataset.Dataset) []int {
	probs := n.Forward(d.X)
	out := make([]int, d.Len())
	for i := range out {
		out[i] = tensor.ArgMax(probs.Row(i))
	}
	return out
}

// PredictVec classifies a single feature vector.
func (n *Network) PredictVec(x []float64) int {
	m := tensor.FromSlice(1, len(x), append([]float64{}, x...))
	probs := n.Forward(m)
	return tensor.ArgMax(probs.Row(0))
}

// ParamCount returns the network's trainable parameter count.
func (n *Network) ParamCount() int { return n.Config.ParamCount() }
