// Package metrics implements the classification and clustering quality
// metrics reported in the Homunculus evaluation: F1 score (binary and
// macro-averaged), precision, recall, accuracy, confusion matrices, and
// the V-measure used for KMeans traffic clustering (Figure 7).
package metrics

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
)

// Confusion is a square confusion matrix: Count[actual][predicted].
type Confusion struct {
	Classes int
	Count   [][]int
}

// NewConfusion returns an empty confusion matrix over n classes.
func NewConfusion(n int) *Confusion {
	c := &Confusion{Classes: n, Count: make([][]int, n)}
	for i := range c.Count {
		c.Count[i] = make([]int, n)
	}
	return c
}

// Observe records one (actual, predicted) pair. Labels outside [0, Classes)
// are ignored so streaming callers need not pre-validate.
func (c *Confusion) Observe(actual, predicted int) {
	if actual < 0 || actual >= c.Classes || predicted < 0 || predicted >= c.Classes {
		return
	}
	c.Count[actual][predicted]++
}

// Total returns the number of observed pairs.
func (c *Confusion) Total() int {
	t := 0
	for _, row := range c.Count {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// Accuracy returns the fraction of correct predictions, or 0 when empty.
func (c *Confusion) Accuracy() float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < c.Classes; i++ {
		correct += c.Count[i][i]
	}
	return float64(correct) / float64(total)
}

// PrecisionRecall returns the precision and recall of class k
// (one-vs-rest). Undefined ratios (zero denominators) yield 0.
func (c *Confusion) PrecisionRecall(k int) (precision, recall float64) {
	if k < 0 || k >= c.Classes {
		return 0, 0
	}
	tp := c.Count[k][k]
	fp, fn := 0, 0
	for i := 0; i < c.Classes; i++ {
		if i == k {
			continue
		}
		fp += c.Count[i][k]
		fn += c.Count[k][i]
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	return precision, recall
}

// F1 returns the F1 score of class k (one-vs-rest).
func (c *Confusion) F1(k int) float64 {
	p, r := c.PrecisionRecall(k)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// MacroF1 returns the unweighted mean of per-class F1 scores.
func (c *Confusion) MacroF1() float64 {
	if c.Classes == 0 {
		return 0
	}
	var s float64
	for k := 0; k < c.Classes; k++ {
		s += c.F1(k)
	}
	return s / float64(c.Classes)
}

// String renders the matrix for logs and reports.
func (c *Confusion) String() string {
	s := "actual\\pred"
	for j := 0; j < c.Classes; j++ {
		s += fmt.Sprintf("\t%d", j)
	}
	for i := 0; i < c.Classes; i++ {
		s += fmt.Sprintf("\n%d", i)
		for j := 0; j < c.Classes; j++ {
			s += fmt.Sprintf("\t%d", c.Count[i][j])
		}
	}
	return s
}

// F1Binary computes the F1 score of the positive class (label 1) for
// binary classification given parallel actual/predicted label slices.
func F1Binary(actual, predicted []int) float64 {
	c := FromLabels(actual, predicted, 2)
	return c.F1(1)
}

// FromLabels builds a confusion matrix over n classes from parallel label
// slices. Slices must be the same length.
func FromLabels(actual, predicted []int, n int) *Confusion {
	if len(actual) != len(predicted) {
		panic(fmt.Sprintf("metrics: label length mismatch %d vs %d", len(actual), len(predicted)))
	}
	c := NewConfusion(n)
	for i := range actual {
		c.Observe(actual[i], predicted[i])
	}
	return c
}

// NumClasses returns 1 + the maximum label seen in the slices (minimum 1),
// a convenience for building confusion matrices from raw labels.
func NumClasses(labelSets ...[]int) int {
	max := 0
	for _, set := range labelSets {
		for _, v := range set {
			if v > max {
				max = v
			}
		}
	}
	return max + 1
}

// VMeasure computes the clustering V-measure (harmonic mean of homogeneity
// and completeness, Rosenberg & Hirschberg 2007) between ground-truth class
// labels and predicted cluster assignments. This is the metric Figure 7
// tracks for IIsy-backed KMeans models.
func VMeasure(classes, clusters []int) float64 {
	h := Homogeneity(classes, clusters)
	c := Completeness(classes, clusters)
	if h+c == 0 {
		return 0
	}
	return 2 * h * c / (h + c)
}

// Homogeneity is 1 when each cluster contains only members of one class.
func Homogeneity(classes, clusters []int) float64 {
	hck, hc := conditionalEntropy(classes, clusters), entropy(classes)
	if hc == 0 {
		return 1
	}
	return 1 - hck/hc
}

// Completeness is 1 when all members of a class land in the same cluster.
func Completeness(classes, clusters []int) float64 {
	hkc, hk := conditionalEntropy(clusters, classes), entropy(clusters)
	if hk == 0 {
		return 1
	}
	return 1 - hkc/hk
}

func entropy(labels []int) float64 {
	if len(labels) == 0 {
		return 0
	}
	counts := map[int]int{}
	for _, v := range labels {
		counts[v]++
	}
	n := float64(len(labels))
	var h float64
	// In key order: float addition does not commute with map iteration
	// order, and the same labels must score the same bits on every run.
	for _, k := range slices.Sorted(maps.Keys(counts)) {
		p := float64(counts[k]) / n
		h -= p * math.Log(p)
	}
	return h
}

// conditionalEntropy returns H(target | given).
func conditionalEntropy(target, given []int) float64 {
	if len(target) != len(given) {
		panic(fmt.Sprintf("metrics: conditionalEntropy length mismatch %d vs %d", len(target), len(given)))
	}
	if len(target) == 0 {
		return 0
	}
	joint := map[[2]int]int{}
	margin := map[int]int{}
	for i := range target {
		joint[[2]int{given[i], target[i]}]++
		margin[given[i]]++
	}
	n := float64(len(target))
	var h float64
	// In key order, as in entropy.
	pairs := slices.SortedFunc(maps.Keys(joint), func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	for _, key := range pairs {
		pxy := float64(joint[key]) / n
		py := float64(margin[key[0]]) / n
		h -= pxy * math.Log(pxy/py)
	}
	return h
}
