// Package dtree implements CART decision-tree classification — the third
// classical algorithm family IIsy maps to match-action pipelines (one MAT
// level per tree depth). The Homunculus optimization core tunes MaxDepth
// and MinLeaf against the available table budget.
package dtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/dataset"
)

// Config holds the tree hyperparameters.
type Config struct {
	MaxDepth int
	MinLeaf  int // minimum samples per leaf
	Classes  int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MaxDepth <= 0 {
		return fmt.Errorf("dtree: MaxDepth must be positive, got %d", c.MaxDepth)
	}
	if c.MinLeaf <= 0 {
		return fmt.Errorf("dtree: MinLeaf must be positive, got %d", c.MinLeaf)
	}
	if c.Classes < 2 {
		return fmt.Errorf("dtree: Classes must be >= 2, got %d", c.Classes)
	}
	return nil
}

// Node is one tree node. Leaves have Feature == -1.
type Node struct {
	Feature     int // split feature, -1 for leaf
	Threshold   float64
	Left, Right *Node
	Class       int // majority class at this node
	Samples     int
}

// IsLeaf reports whether the node is terminal.
func (n *Node) IsLeaf() bool { return n.Feature < 0 }

// Model is a fitted CART tree.
type Model struct {
	Config Config
	Root   *Node
}

// Train fits a CART tree with Gini-impurity splits. It is Presort followed
// by Grow; a caller fitting several trees to one training set (the search
// loop does, twenty per family) presorts once and grows each from that.
func Train(c Config, d *dataset.Dataset) (*Model, error) {
	return Presort(d).Grow(c)
}

// Presorted is a training set with every feature column sorted once. The
// split search needs each node's samples in ascending order of each
// feature; sorting that at every node is what CART spends its time on.
// Sorted once here, the order survives down the tree: a node owns the
// same index range of every column, and a split partitions each range
// stably into its left and right child, so the children are sorted too.
// A Presorted is read-only after Presort and may be grown from
// concurrently.
type Presorted struct {
	d *dataset.Dataset
	// order holds one column of d.Len() sample indices per feature,
	// column f at [f*n, (f+1)*n), ascending in feature f. Column 0
	// doubles as the list of a node's samples, so a dataset with no
	// features gets the identity as its only column.
	order []int32
}

// Presort sorts every feature column of d. d must not change while the
// result is in use. How equal values are ordered within a column is
// arbitrary: a split is only legal between two different values, where
// the class counts on each side do not depend on it.
func Presort(d *dataset.Dataset) *Presorted {
	n, nf := d.Len(), d.Features()
	p := &Presorted{d: d, order: make([]int32, max(nf, 1)*n)}
	for i := range p.order[:n] {
		p.order[i] = int32(i)
	}
	type entry struct {
		v float64
		i int32
	}
	col := make([]entry, n)
	for f := 0; f < nf; f++ {
		for i := range col {
			col[i] = entry{d.X.At(i, f), int32(i)}
		}
		slices.SortFunc(col, func(a, b entry) int { return cmp.Compare(a.v, b.v) })
		for pos, e := range col {
			p.order[f*n+pos] = e.i
		}
	}
	return p
}

// Grow fits a CART tree with Gini-impurity splits to the presorted set.
func (p *Presorted) Grow(c Config) (*Model, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := p.d.Len()
	if n == 0 {
		return nil, fmt.Errorf("dtree: empty training set")
	}
	counts := make([]int, 3*c.Classes)
	g := grower{
		c: c, d: p.d, n: n,
		cols:   slices.Clone(p.order),
		spill:  make([]int32, n),
		left:   make([]bool, n),
		counts: counts[:c.Classes],
		lc:     counts[c.Classes : 2*c.Classes],
		rc:     counts[2*c.Classes:],
	}
	return &Model{Config: c, Root: g.build(0, n, 0)}, nil
}

// grower is the working memory of one Grow: a private copy of the sorted
// columns, partitioned in place as the tree recurses, and the buffers
// every node reuses.
type grower struct {
	c Config
	d *dataset.Dataset
	n int

	cols  []int32 // the node at [lo, hi) owns that range of every column
	spill []int32 // right-child half of a column during its partition
	left  []bool  // per sample: goes to the left child of the split under way

	counts, lc, rc []int // class counts: the node, and each side of a sweep
}

// build grows the subtree over the samples at [lo, hi) of every column.
func (g *grower) build(lo, hi, depth int) *Node {
	c, d := g.c, g.d
	node := &Node{Feature: -1, Samples: hi - lo}
	clear(g.counts)
	for _, i := range g.cols[lo:hi] {
		if d.Y[i] < c.Classes {
			g.counts[d.Y[i]]++
		}
	}
	node.Class = argMaxInt(g.counts)
	if depth >= c.MaxDepth || hi-lo < 2*c.MinLeaf || pure(g.counts) {
		return node
	}
	feat, thresh, gain := g.bestSplit(lo, hi)
	if gain <= 1e-12 {
		return node
	}
	// Membership is decided by comparing with the threshold, not by the
	// position of the split: the midpoint of two adjacent floats can round
	// up to the larger one.
	nl := 0
	for _, i := range g.cols[lo:hi] {
		l := d.X.At(int(i), feat) <= thresh
		g.left[i] = l
		if l {
			nl++
		}
	}
	if nl < c.MinLeaf || hi-lo-nl < c.MinLeaf {
		return node
	}
	for off := 0; off < len(g.cols); off += g.n {
		col := g.cols[off+lo : off+hi]
		l, r := 0, 0
		for _, i := range col {
			if g.left[i] {
				col[l] = i
				l++
			} else {
				g.spill[r] = i
				r++
			}
		}
		copy(col[l:], g.spill[:r])
	}
	node.Feature = feat
	node.Threshold = thresh
	node.Left = g.build(lo, lo+nl, depth+1)
	node.Right = g.build(lo+nl, hi, depth+1)
	return node
}

func pure(counts []int) bool {
	nonzero := 0
	for _, v := range counts {
		if v > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

func argMaxInt(x []int) int {
	best, bi := math.MinInt, 0
	for i, v := range x {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

func gini(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, v := range counts {
		p := float64(v) / float64(total)
		g -= p * p
	}
	return g
}

// bestSplit sweeps the node's range of every sorted column once,
// maintaining class counts on each side incrementally: O(features · n ·
// classes) per node, with no sorting. g.counts holds the node's counts.
func (g *grower) bestSplit(lo, hi int) (feat int, thresh, gain float64) {
	c, d := g.c, g.d
	n := hi - lo
	parentGini := gini(g.counts, n)
	bestGain := 0.0
	bestFeat, bestThresh := -1, 0.0

	for f := 0; f < d.Features(); f++ {
		col := g.cols[f*g.n+lo : f*g.n+hi]
		clear(g.lc)
		copy(g.rc, g.counts)
		next := d.X.At(int(col[0]), f)
		for pos := 0; pos < n-1; pos++ {
			y := d.Y[col[pos]]
			if y < c.Classes {
				g.lc[y]++
				g.rc[y]--
			}
			v := next
			next = d.X.At(int(col[pos+1]), f)
			if v == next {
				continue // can't split between equal values
			}
			nl, nr := pos+1, n-pos-1
			gn := parentGini -
				(float64(nl)/float64(n))*gini(g.lc, nl) -
				(float64(nr)/float64(n))*gini(g.rc, nr)
			if gn > bestGain {
				bestGain = gn
				bestFeat = f
				bestThresh = (v + next) / 2
			}
		}
	}
	return bestFeat, bestThresh, bestGain
}

// PredictVec classifies one feature vector.
func (m *Model) PredictVec(x []float64) int {
	n := m.Root
	for !n.IsLeaf() {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Class
}

// Predict classifies every sample of d.
func (m *Model) Predict(d *dataset.Dataset) []int {
	out := make([]int, d.Len())
	for i := range out {
		out[i] = m.PredictVec(d.X.Row(i))
	}
	return out
}

// Depth returns the height of the fitted tree (a single leaf is depth 0) —
// this is what the MAT backend charges tables for.
func (m *Model) Depth() int { return depth(m.Root) }

func depth(n *Node) int {
	if n == nil || n.IsLeaf() {
		return 0
	}
	l, r := depth(n.Left), depth(n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Leaves returns the number of leaf nodes.
func (m *Model) Leaves() int { return leaves(m.Root) }

func leaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	return leaves(n.Left) + leaves(n.Right)
}
