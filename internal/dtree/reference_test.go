package dtree

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
)

// The CART implementation this package shipped before the presorted
// layout, kept verbatim (renamed) as the differential reference: it
// copies and sorts the node's index slice for every feature at every
// node. TestPresortedMatchesReference and FuzzDTreePresorted require the
// presorted grower to return a deeply equal tree.

func referenceTrain(c Config, d *dataset.Dataset) (*Model, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("dtree: empty training set")
	}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	root := referenceBuild(c, d, idx, 0)
	return &Model{Config: c, Root: root}, nil
}

func referenceBuild(c Config, d *dataset.Dataset, idx []int, depth int) *Node {
	node := &Node{Feature: -1, Samples: len(idx)}
	counts := make([]int, c.Classes)
	for _, i := range idx {
		if d.Y[i] < c.Classes {
			counts[d.Y[i]]++
		}
	}
	node.Class = argMaxInt(counts)
	if depth >= c.MaxDepth || len(idx) < 2*c.MinLeaf || pure(counts) {
		return node
	}
	feat, thresh, gain := referenceBestSplit(c, d, idx, counts)
	if gain <= 1e-12 {
		return node
	}
	var left, right []int
	for _, i := range idx {
		if d.X.At(i, feat) <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < c.MinLeaf || len(right) < c.MinLeaf {
		return node
	}
	node.Feature = feat
	node.Threshold = thresh
	node.Left = referenceBuild(c, d, left, depth+1)
	node.Right = referenceBuild(c, d, right, depth+1)
	return node
}

func referenceBestSplit(c Config, d *dataset.Dataset, idx []int, parentCounts []int) (feat int, thresh, gain float64) {
	n := len(idx)
	parentGini := gini(parentCounts, n)
	bestGain := 0.0
	bestFeat, bestThresh := -1, 0.0

	order := make([]int, n)
	for f := 0; f < d.Features(); f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return d.X.At(order[a], f) < d.X.At(order[b], f) })
		leftCounts := make([]int, c.Classes)
		rightCounts := append([]int{}, parentCounts...)
		for pos := 0; pos < n-1; pos++ {
			y := d.Y[order[pos]]
			if y < c.Classes {
				leftCounts[y]++
				rightCounts[y]--
			}
			v, next := d.X.At(order[pos], f), d.X.At(order[pos+1], f)
			if v == next {
				continue // can't split between equal values
			}
			nl, nr := pos+1, n-pos-1
			g := parentGini -
				(float64(nl)/float64(n))*gini(leftCounts, nl) -
				(float64(nr)/float64(n))*gini(rightCounts, nr)
			if g > bestGain {
				bestGain = g
				bestFeat = f
				bestThresh = (v + next) / 2
			}
		}
	}
	return bestFeat, bestThresh, bestGain
}
