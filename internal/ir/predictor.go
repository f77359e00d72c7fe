package ir

// Predictor is a prepared quantized-inference engine over one Model: the
// trained parameters are quantized once at construction and every scratch
// buffer is preallocated, so a steady-state Classify call performs zero
// heap allocations. This is the serving-path counterpart of PredictQ's
// batch fast path — the deployment runtime (internal/serve) builds one
// Predictor per inference shard and streams live feature vectors through
// it at line rate.
//
// Construction flattens every model family into the hardware idiom:
// DNN weights become one row-major []int32 per layer with the activation
// resolved to an enum (no per-neuron string switch), SVM hyperplanes and
// KMeans centroids become strided flat arrays, and trees become
// index-linked arrays with thresholds quantized once — the traversal step
// is pure arithmetic (a sign-bit select), with leaves self-looping so the
// walk runs a fixed number of iterations with no data-dependent branch.
//
// Classify is bit-identical to Model.InferQ for every algorithm family:
// the per-element operation order (quantize, wide-accumulator dot,
// saturating add, PWL activations) is exactly the generated hardware's,
// so a served answer matches what the data plane would output. A dense
// layer runs register-blocked, four neurons per pass over the input
// (layerVec), through the same writeback and quantizer as the batch
// kernel.
//
// ClassifyBatch (batch.go) is the same arithmetic carried over Tile
// input vectors at once, and is bit-identical to InferQ lane for lane.
//
// A Predictor is NOT safe for concurrent use — it owns mutable scratch
// state. Create one per goroutine; construction is cheap relative to the
// model's lifetime (one pass over the parameters).

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/fixed"
)

// actKind is a DNN activation resolved at construction time so the inner
// loop never compares strings. Unknown strings (including "softmax",
// which arg-max skips) map to actNone, matching InferQ's default case.
type actKind uint8

const (
	actNone actKind = iota
	actReLU
	actSigmoid
	actTanh
)

func resolveAct(s string) actKind {
	switch s {
	case "relu":
		return actReLU
	case "sigmoid":
		return actSigmoid
	case "tanh":
		return actTanh
	}
	return actNone
}

// flatLayer is one DNN layer with weights quantized into a single
// row-major array: neuron o's weights are w[o*in : (o+1)*in]. An SVM is
// one such layer with no activation: its hyperplanes are the rows.
type flatLayer struct {
	in, out int
	w       []int32
	b       []int32
	act     actKind
	wb      writeback
}

// newFlatLayer quantizes one layer's [out][in] weights and biases.
func newFlatLayer(f fixed.Format, in int, w [][]float64, b []float64, act actKind) flatLayer {
	l := flatLayer{in: in, out: len(w), w: make([]int32, len(w)*in), b: make([]int32, len(w)), act: act, wb: newWriteback(f, act)}
	for o, wo := range w {
		row := l.w[o*in : (o+1)*in]
		for i, wv := range wo {
			row[i] = f.Quantize(wv)
		}
		l.b[o] = f.Quantize(b[o])
	}
	return l
}

// writeback is the end of every dense-layer neuron, on both kernels:
// shift the wide accumulator back to the format's fraction bits,
// saturate, saturating bias add, activation — DotQ's writeback followed
// by Add and the activation, with the bounds resolved once per layer.
// ReLU and the PWL tanh are clamps of an already saturated value, so
// they fold into the bounds of the bias add's saturation; the PWL
// sigmoid is a pass of its own over the layer's outputs.
//
// The bounds are two pairs rather than four fields: a struct of at most
// four fields and four words is one the compiler keeps in registers.
type writeback struct {
	frac uint
	sat  bounds // the format's range
	act  bounds // the bias add's saturation, narrowed by the activation
}

type bounds struct{ lo, hi int32 }

func newWriteback(f fixed.Format, act actKind) writeback {
	// int64 >> 63 is what any larger count gives.
	wb := writeback{frac: min(uint(f.FracBits), 63), sat: bounds{f.MinRaw(), f.MaxRaw()}}
	wb.act = wb.sat
	switch act {
	case actReLU:
		wb.act.lo = 0
	case actTanh:
		one := f.Quantize(1)
		wb.act = bounds{-one, one}
	}
	return wb
}

// finish is one neuron's writeback: acc is its wide dot product, b its
// quantized bias.
func (w writeback) finish(acc, b int64) int32 {
	// The mask lets the compiler drop the shift's count check.
	v := min(max(acc>>(w.frac&63), int64(w.sat.lo)), int64(w.sat.hi)) + b
	return int32(min(max(v, int64(w.act.lo)), int64(w.act.hi)))
}

// Predictor holds quantized parameters and reusable inference buffers.
type Predictor struct {
	m       *Model
	f       fixed.Format
	hasNorm bool

	vbuf, nbuf []int32 // ping-pong activation buffers
	tcur, tnxt []int32 // the same for one tile of the batch kernel (batch.go)

	layers []flatLayer // DNN, or the one linear layer of an SVM

	cq []int32 // KMeans: row-major [cluster*feature]

	// DTree as index-linked flat arrays. Node i tests feature treeFeat[i]
	// against the pre-quantized treeThr[i] and steps to
	// treeKids[i][sign(thr-x)]. Leaves store feat=0, thr=MaxInt32 and
	// self-loop through both kid slots, so the walk can run exactly
	// treeDepth iterations with no leaf test; the class answer is
	// treeCls[idx] wherever the walk lands.
	treeFeat  []int32
	treeThr   []int32
	treeKids  [][2]int32
	treeCls   []int32
	treeDepth int
}

// NewPredictor validates m and prepares its quantized flat parameters.
func NewPredictor(m *Model) (*Predictor, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	f := m.Format
	p := &Predictor{m: m, f: f, hasNorm: len(m.Mean) == m.Inputs}
	switch m.Kind {
	case DNN:
		p.layers = make([]flatLayer, len(m.Layers))
		for li, l := range m.Layers {
			p.layers[li] = newFlatLayer(f, l.In, l.W, l.B, resolveAct(l.Activation))
		}
	case SVM:
		if len(m.SVM.B) != m.Outputs {
			return nil, fmt.Errorf("ir: SVM %q has %d biases, want %d", m.Name, len(m.SVM.B), m.Outputs)
		}
		p.layers = []flatLayer{newFlatLayer(f, m.Inputs, m.SVM.W, m.SVM.B, actNone)}
	case KMeans:
		p.cq = make([]int32, len(m.Centroids)*m.Inputs)
		for k, c := range m.Centroids {
			row := p.cq[k*m.Inputs : (k+1)*m.Inputs]
			for i, cv := range c {
				row[i] = f.Quantize(cv)
			}
		}
	case DTree:
		p.flattenTree(m.Tree)
	}
	maxW := m.Inputs
	for _, l := range p.layers {
		maxW = max(maxW, l.out)
	}
	p.vbuf = make([]int32, maxW)
	p.nbuf = make([]int32, maxW)
	p.tcur = make([]int32, maxW*Tile)
	p.tnxt = make([]int32, maxW*Tile)
	return p, nil
}

// flattenTree lowers the pointer-linked CART into the index-linked flat
// arrays, quantizing every threshold exactly once. A leaf's threshold is
// MaxInt32 so the sign-bit step always selects kid 0, which points back
// at the leaf itself — the walk parks there for the remaining iterations.
func (p *Predictor) flattenTree(root *TreeNode) {
	n := countNodes(root)
	p.treeFeat = make([]int32, 0, n)
	p.treeThr = make([]int32, 0, n)
	p.treeKids = make([][2]int32, 0, n)
	p.treeCls = make([]int32, 0, n)
	var walk func(node *TreeNode, d int) int32
	walk = func(node *TreeNode, d int) int32 {
		i := int32(len(p.treeFeat))
		p.treeFeat = append(p.treeFeat, 0)
		p.treeThr = append(p.treeThr, 0)
		p.treeKids = append(p.treeKids, [2]int32{})
		p.treeCls = append(p.treeCls, 0)
		if d > p.treeDepth {
			p.treeDepth = d
		}
		if node.Feature < 0 {
			p.treeThr[i] = math.MaxInt32
			p.treeKids[i] = [2]int32{i, i}
			p.treeCls[i] = int32(node.Class)
			return i
		}
		p.treeFeat[i] = int32(node.Feature)
		p.treeThr[i] = p.f.Quantize(node.Threshold)
		l := walk(node.Left, d+1)
		r := walk(node.Right, d+1)
		p.treeKids[i] = [2]int32{l, r}
		return i
	}
	walk(root, 0)
}

// Classify runs one quantized inference, reusing the predictor's buffers.
// The result equals the model's InferQ(x) bit-for-bit; the input slice is
// only read.
func (p *Predictor) Classify(x []float64) (int, error) {
	m := p.m
	if len(x) != m.Inputs {
		return 0, fmt.Errorf("ir: input has %d features, model %q wants %d", len(x), m.Name, m.Inputs)
	}
	cur := p.vbuf[:m.Inputs]
	p.quantizeRow(cur, 1, x)
	switch m.Kind {
	case DNN, SVM:
		nxt := p.nbuf
		for li := range p.layers {
			l := &p.layers[li]
			p.layerVec(l, cur, nxt)
			cur, nxt = nxt[:l.out], cur[:cap(cur)]
		}
		return argMaxQ(cur), nil
	case KMeans:
		in := m.Inputs
		bestK, bestD := 0, int64(-1)
		for k := 0; k*in < len(p.cq); k++ {
			row := p.cq[k*in : (k+1)*in]
			var d int64
			for i, cv := range row {
				diff := int64(cur[i]) - int64(cv)
				d += diff * diff
			}
			if bestD < 0 || d < bestD {
				bestD, bestK = d, k
			}
		}
		return bestK, nil
	case DTree:
		feat, thr, kids := p.treeFeat, p.treeThr, p.treeKids
		idx := int32(0)
		for d := 0; d < p.treeDepth; d++ {
			// b is the sign bit of thr-x: 0 when x <= thr (go left),
			// 1 when x > thr (go right) — the exact InferQ comparison
			// with no branch.
			xv := int64(cur[feat[idx]])
			b := uint64(int64(thr[idx])-xv) >> 63
			idx = kids[idx][b&1]
		}
		return int(p.treeCls[idx]), nil
	default:
		return 0, fmt.Errorf("ir: cannot infer kind %d", int(m.Kind))
	}
}

// layerVec runs one dense layer on a single vector: cur holds l.in
// features, nxt receives l.out activations. Four neurons share each pass
// over the input; the out mod 4 tail is a pair, then a single. The wide
// sums equal DotQ's: int64 addition wraps and is associative, so the
// order of the products is free.
func (p *Predictor) layerVec(l *flatLayer, cur, nxt []int32) {
	cur, nxt = cur[:l.in], nxt[:l.out]
	o := 0
	for ; o+4 <= len(nxt); o += 4 {
		l.block4(o, cur, nxt)
	}
	if o+2 <= len(nxt) {
		l.block2(o, cur, nxt)
		o += 2
	}
	if o < len(nxt) {
		l.block1(o, cur, nxt)
	}
	if l.act == actSigmoid {
		p.sigmoid(nxt)
	}
}

// block4 is the single-vector register block: neurons o..o+3 of l
// against x, each feature loaded once for all four, written back into d.
func (l *flatLayer) block4(o int, x, d []int32) {
	n := len(x)
	w := l.w[o*n:]
	r0, r1, r2, r3 := w[:n], w[n:][:n], w[2*n:][:n], w[3*n:][:n]
	var a0, a1, a2, a3 int64
	for i, xv := range x {
		v := int64(xv)
		a0 += int64(r0[i]) * v
		a1 += int64(r1[i]) * v
		a2 += int64(r2[i]) * v
		a3 += int64(r3[i]) * v
	}
	wb, b, d := l.wb, l.b[o:o+4:o+4], d[o:o+4:o+4]
	d[0], d[1] = wb.finish(a0, int64(b[0])), wb.finish(a1, int64(b[1]))
	d[2], d[3] = wb.finish(a2, int64(b[2])), wb.finish(a3, int64(b[3]))
}

// block2 is block4 for two neurons.
func (l *flatLayer) block2(o int, x, d []int32) {
	n := len(x)
	w := l.w[o*n:]
	r0, r1 := w[:n], w[n:][:n]
	var a0, a1 int64
	for i, xv := range x {
		v := int64(xv)
		a0 += int64(r0[i]) * v
		a1 += int64(r1[i]) * v
	}
	wb, b, d := l.wb, l.b[o:o+2:o+2], d[o:o+2:o+2]
	d[0], d[1] = wb.finish(a0, int64(b[0])), wb.finish(a1, int64(b[1]))
}

// block1 is block4 for one neuron.
func (l *flatLayer) block1(o int, x, d []int32) {
	w := l.w[o*len(x):][:len(x)]
	var a int64
	for i, xv := range x {
		a += int64(w[i]) * int64(xv)
	}
	d[o] = l.wb.finish(a, int64(l.b[o]))
}

// sigmoid applies the PWL sigmoid to a layer's written-back outputs.
func (p *Predictor) sigmoid(v []int32) {
	for i, x := range v {
		v[i] = p.f.SigmoidQ(x)
	}
}

// PredictDataset classifies every row of d through the batch kernel,
// writing into out (which must have d.Len() slots).
func (p *Predictor) PredictDataset(d *dataset.Dataset, out []int) error {
	if d.Features() != p.m.Inputs {
		return fmt.Errorf("ir: input has %d features, model %q wants %d", d.Features(), p.m.Name, p.m.Inputs)
	}
	if len(out) != d.Len() {
		return fmt.Errorf("ir: output slice has %d slots for %d samples", len(out), d.Len())
	}
	// ClassifyBatch takes row slices; a dataset is one flat matrix. A
	// fixed window of row views keeps the call allocation-free.
	var rows [8 * Tile][]float64
	for lo := 0; lo < len(out); lo += len(rows) {
		hi := min(lo+len(rows), len(out))
		for i := lo; i < hi; i++ {
			rows[i-lo] = d.X.Row(i)
		}
		if err := p.ClassifyBatch(rows[:hi-lo], out[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}
