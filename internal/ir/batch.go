package ir

// The batch kernel: Predictor.ClassifyBatch carries Tile input vectors
// ("lanes") through the model together. A tile is stored feature-major,
// lane-minor — element i of lane l at [i*Tile+l] — so a layer loads each
// weight once and multiplies it into Tile accumulators that stay in
// registers for the whole row. The model's parameters are a few KB and
// L1-resident, so the cost of a layer is instructions per neuron, not
// memory: the kernel blocks registers and does not tile for cache. On an
// amd64 CPU with AVX2 a dense layer is one call of tileAVX2
// (tile_amd64.s), which runs the eight lanes in two ymm registers;
// dotTile is the portable kernel and the one the tests hold it to. The
// single-vector Classify (predictor.go) blocks the other way, four
// neurons per pass over one vector, and shares this kernel's input
// quantizer (quantizeRow) and neuron writeback (writeback.finish).
//
// Every lane computes exactly Classify's — and so InferQ's — sequence:
// quantize((x-mean)/std), a wide int64 accumulate (wrapping addition is
// associative, so the order of the products is free), one writeback
// shift, saturate, saturating bias add, activation. ReLU and the PWL
// tanh are clamps applied to an already clamped value, so they fold into
// the bounds of the bias add's saturation; the PWL sigmoid is a pass of
// its own over the layer's outputs.

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// useAVX2 makes layerTile run its dense layer as one call of tileAVX2
// (tile_amd64.s). It is decided once, at init.
var useAVX2 = tensor.HasAVX2()

// Tile is the number of input vectors the batch kernel classifies
// together. Eight int64 accumulators, the weight and the loop state fit
// the sixteen general registers of amd64 and arm64.
const Tile = 8

// ClassifyBatch classifies every row of xs into out, which must have
// len(xs) slots; out[i] equals the model's InferQ(xs[i]) bit for bit. A row
// of the wrong width gets -1 and is reported in the returned error (the
// first such row's); every other row is still classified. The rows are
// only read.
func (p *Predictor) ClassifyBatch(xs [][]float64, out []int) error {
	if len(out) != len(xs) {
		return fmt.Errorf("ir: output slice has %d slots for %d vectors", len(out), len(xs))
	}
	var first error
	i := 0
	for ; i+Tile <= len(xs); i += Tile {
		if p.loadTile(xs[i : i+Tile]) {
			p.classifyTile(out[i : i+Tile])
		} else {
			first = p.classifyRows(xs[i:i+Tile], out[i:i+Tile], first)
		}
	}
	return p.classifyRows(xs[i:], out[i:], first)
}

// classifyRows is the one-at-a-time path of ClassifyBatch: the ragged
// tail of a batch, and a tile that holds a row of the wrong width.
func (p *Predictor) classifyRows(xs [][]float64, out []int, first error) error {
	for i, x := range xs {
		y, err := p.Classify(x)
		if err != nil {
			y = -1
			if first == nil {
				first = err
			}
		}
		out[i] = y
	}
	return first
}

// loadTile normalizes and quantizes Tile rows into p.tcur, lane-minor. It
// reports false, leaving the tile unusable, if a row has the wrong width.
func (p *Predictor) loadTile(rows [][]float64) bool {
	for _, x := range rows {
		if len(x) != p.m.Inputs {
			return false
		}
	}
	for l, x := range rows {
		p.quantizeRow(p.tcur[l:], Tile, x)
	}
	return true
}

// quantizeRow normalizes x, when the model carries a normalizer, and
// quantizes it into dst[0], dst[stride], dst[2*stride], ... — the one
// input sweep of Classify (stride 1) and of a tile (stride Tile), for
// every model family. It is fixed.Format.Quantize with the format's
// constants hoisted: same product, same rounding, same bounds, NaN to 0.
// The normalize is a divide, as InferQ's: a reciprocal multiply rounds
// differently.
func (p *Predictor) quantizeRow(dst []int32, stride int, x []float64) {
	scale := float64(int64(1) << uint(p.f.FracBits))
	lo, hi := p.f.MinRaw(), p.f.MaxRaw()
	flo, fhi := float64(lo), float64(hi)
	quantize := func(v float64) int32 {
		if raw := math.Round(v * scale); raw > fhi {
			return hi
		} else if raw < flo {
			return lo
		} else if raw == raw {
			return int32(raw)
		}
		return 0 // NaN
	}
	if p.hasNorm {
		mean, std := p.m.Mean[:len(x)], p.m.Std[:len(x)]
		for i, v := range x {
			dst[i*stride] = quantize((v - mean[i]) / std[i])
		}
		return
	}
	for i, v := range x {
		dst[i*stride] = quantize(v)
	}
}

// classifyTile classifies the tile loadTile left in p.tcur.
func (p *Predictor) classifyTile(out []int) {
	out = out[:Tile]
	switch p.m.Kind {
	case DNN, SVM:
		cur, nxt := p.tcur, p.tnxt
		for li := range p.layers {
			p.layerTile(&p.layers[li], cur, nxt)
			cur, nxt = nxt, cur
		}
		for l := range out {
			best, bi := cur[l], 0
			for o := 1; o < p.m.Outputs; o++ {
				if v := cur[o*Tile+l]; v > best {
					best, bi = v, o
				}
			}
			out[l] = bi
		}
	case KMeans:
		p.kmeansTile(out)
	case DTree:
		feat, thr, kids := p.treeFeat, p.treeThr, p.treeKids
		// Level-synchronous: the Tile walks are independent chains, so
		// stepping them together overlaps their load latencies.
		var idx [Tile]int32
		for d := 0; d < p.treeDepth; d++ {
			for l, n := range idx {
				xv := int64(p.tcur[int(feat[n])*Tile+l])
				b := uint64(int64(thr[n])-xv) >> 63
				idx[l] = kids[n][b&1]
			}
		}
		for l, n := range idx {
			out[l] = int(p.treeCls[n])
		}
	}
}

// dotTile is the register block: one weight row against a tile, eight
// wide accumulators. It is a function of its own so that the accumulators
// compete for registers with nothing but the two cursors — inlined into
// layerTile they spill.
//
//go:noinline
func dotTile(row, x []int32) (a0, a1, a2, a3, a4, a5, a6, a7 int64) {
	for _, wv := range row {
		w := int64(wv)
		_ = x[Tile-1]
		a0 += w * int64(x[0])
		a1 += w * int64(x[1])
		a2 += w * int64(x[2])
		a3 += w * int64(x[3])
		a4 += w * int64(x[4])
		a5 += w * int64(x[5])
		a6 += w * int64(x[6])
		a7 += w * int64(x[7])
		x = x[Tile:]
	}
	return
}

// layerTile runs one dense layer over a tile: cur holds l.in features,
// nxt receives l.out activations, both lane-minor: tileAVX2 where the CPU
// has AVX2, else dotTile and writeback.finish.
func (p *Predictor) layerTile(l *flatLayer, cur, nxt []int32) {
	wb, in, out := l.wb, l.in, l.out
	// The assembly reads and writes through raw pointers: these slicings
	// are its bounds checks.
	w, b := l.w[:out*in], l.b[:out]
	cur, nxt = cur[:in*Tile], nxt[:out*Tile]
	if useAVX2 {
		tileAVX2(w, b, cur, nxt, in, wb)
	} else {
		for o := range b {
			a0, a1, a2, a3, a4, a5, a6, a7 := dotTile(w[o*in:(o+1)*in], cur)
			bo := int64(b[o])
			d := nxt[o*Tile : (o+1)*Tile : (o+1)*Tile]
			d[0], d[1], d[2], d[3] = wb.finish(a0, bo), wb.finish(a1, bo), wb.finish(a2, bo), wb.finish(a3, bo)
			d[4], d[5], d[6], d[7] = wb.finish(a4, bo), wb.finish(a5, bo), wb.finish(a6, bo), wb.finish(a7, bo)
		}
	}
	if l.act == actSigmoid {
		p.sigmoid(nxt)
	}
}

// kmeansTile assigns each lane of the tile to its nearest centroid, with
// Classify's distance arithmetic and tie-breaking.
func (p *Predictor) kmeansTile(out []int) {
	in := p.m.Inputs
	cur := p.tcur[:in*Tile]
	var bestD [Tile]int64
	for l := range bestD {
		bestD[l], out[l] = -1, 0
	}
	for k := 0; k*in < len(p.cq); k++ {
		var d [Tile]int64
		x := cur
		for _, cv := range p.cq[k*in : (k+1)*in] {
			c := int64(cv)
			_ = x[Tile-1]
			for l := range d {
				diff := int64(x[l]) - c
				d[l] += diff * diff
			}
			x = x[Tile:]
		}
		for l, dl := range d {
			if bestD[l] < 0 || dl < bestD[l] {
				bestD[l], out[l] = dl, k
			}
		}
	}
}
