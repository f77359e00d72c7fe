// Package rf implements random-forest regression, the surrogate model the
// paper configures HyperMapper to use for its Bayesian optimization
// ("we setup HyperMapper to use the Random Forests surrogate model, which
// is known to work well with systems workloads that require modeling of
// discrete parameters and non-continuous functions", §5). The forest
// provides both a mean prediction and an across-tree variance estimate,
// which the Expected Improvement acquisition in internal/bo consumes.
// The same machinery doubles as a probability-of-feasibility classifier by
// regressing on 0/1 feasibility labels.
//
// Trees are stored as flat index-linked arrays (cache-friendly to walk)
// and built allocation-lean: bootstrap indices are partitioned in place
// and the split search reuses per-tree scratch buffers, which a Scratch
// carries from one fit to the next. Tree fits run in
// parallel on the shared worker pool; every tree's bootstrap sample and
// RNG seed are drawn from the forest seed up front on the caller, so the
// fitted forest is bit-identical at any pool size.
package rf

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/parallel"
)

// splitmix is the forest's internal PRNG. BO histories are a few dozen
// points, so a tree fit is microseconds of work — seeding math/rand's
// 607-word lagged-Fibonacci state per tree used to cost more than the fit
// itself. splitmix64 seeds in one word, passes through the same
// deterministic seed-per-tree protocol, and its quality is ample for
// bootstrap draws and feature subsets.
type splitmix struct{ state uint64 }

func (r *splitmix) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n). The modulo bias is negligible for
// the feature/sample counts involved (n « 2^32).
func (r *splitmix) intn(n int) int {
	return int(r.next() % uint64(n))
}

// Config holds the forest hyperparameters.
type Config struct {
	Trees     int
	MaxDepth  int
	MinLeaf   int
	Subsample float64 // bootstrap fraction per tree (0 < s <= 1)
	Features  float64 // fraction of features considered per split (0 < f <= 1)
	Seed      int64
}

// DefaultConfig mirrors HyperMapper's defaults at small scale. The low
// Subsample keeps bootstrap trees diverse so the across-tree variance
// stays informative on the few-dozen-point histories BO produces.
func DefaultConfig() Config {
	return Config{Trees: 32, MaxDepth: 12, MinLeaf: 2, Subsample: 0.6, Features: 0.8, Seed: 1}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Trees <= 0 {
		return fmt.Errorf("rf: Trees must be positive, got %d", c.Trees)
	}
	if c.MaxDepth <= 0 {
		return fmt.Errorf("rf: MaxDepth must be positive, got %d", c.MaxDepth)
	}
	if c.MinLeaf <= 0 {
		return fmt.Errorf("rf: MinLeaf must be positive, got %d", c.MinLeaf)
	}
	if c.Subsample <= 0 || c.Subsample > 1 {
		return fmt.Errorf("rf: Subsample must be in (0,1], got %v", c.Subsample)
	}
	if c.Features <= 0 || c.Features > 1 {
		return fmt.Errorf("rf: Features must be in (0,1], got %v", c.Features)
	}
	return nil
}

// node is one flat-array tree node; children are indices into the same
// slice, so a trained tree is a single contiguous allocation.
type node struct {
	feature     int32 // -1 for leaf
	left, right int32
	threshold   float64
	value       float64 // mean of targets at the leaf
}

// tree is one fitted regression tree; nodes[0] is the root.
type tree struct {
	nodes []node
}

// Forest is a trained random-forest regressor.
type Forest struct {
	Config Config
	trees  []tree
	nFeat  int
}

// Train fits a forest on rows x (each a feature vector) and targets y.
// Individual trees are fitted in parallel on the shared worker pool; the
// result is deterministic for a given Config.Seed regardless of pool size.
func Train(c Config, x [][]float64, y []float64) (*Forest, error) {
	return new(Scratch).Train(c, x, y)
}

// Scratch is the memory of a forest fit — the node arrays, the bootstrap
// draws, every tree's split-search buffers, each kind one slab shared out
// among the trees — kept for the next fit. A BO run refits its surrogate
// on a history one point longer before every suggestion and is done with
// each forest before the next fit, so one Scratch per surrogate makes a
// run's fits allocate only when the bootstrap sample grows. The zero value
// is ready to use; a Scratch serves one Train at a time.
type Scratch struct {
	forest Forest
	rng    *rand.Rand
	seeds  []uint64
	fits   []treeScratch // one per tree: tree fits run concurrently
	// Slabs, tree t's share at [t*size, (t+1)*size): sampleN of boot,
	// keys, order and part, nFeat of perm, 2*sampleN of nodes.
	boot, order, part, perm []int
	keys                    []float64
	nodes                   []node
}

// Train is the package's Train fitted into s: the same forest, bit for
// bit, but valid only until s's next Train, which overwrites it.
func (s *Scratch) Train(c Config, x [][]float64, y []float64) (*Forest, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("rf: empty training set")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("rf: %d rows but %d targets", len(x), len(y))
	}
	nFeat := len(x[0])
	for i, row := range x {
		if len(row) != nFeat {
			return nil, fmt.Errorf("rf: ragged row %d (%d features, want %d)", i, len(row), nFeat)
		}
	}
	sampleN := int(math.Ceil(c.Subsample * float64(len(x))))
	f := &s.forest
	f.Config, f.nFeat = c, nFeat
	f.trees = resize(f.trees, c.Trees)
	s.fits = resize(s.fits, c.Trees)
	s.seeds = resize(s.seeds, c.Trees)
	s.boot = resize(s.boot, c.Trees*sampleN)
	s.order = resize(s.order, c.Trees*sampleN)
	s.part = resize(s.part, c.Trees*sampleN)
	s.keys = resize(s.keys, c.Trees*sampleN)
	s.perm = resize(s.perm, c.Trees*nFeat)
	s.nodes = resize(s.nodes, c.Trees*2*sampleN)
	// Reseeding is a fresh source's state: rand.NewSource(seed) is an
	// allocation followed by this Seed call.
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(c.Seed))
	} else {
		s.rng.Seed(c.Seed)
	}
	// Draw every tree's bootstrap sample and RNG seed serially before
	// dispatch, so the forest does not depend on fit scheduling. The
	// forest-level source stays math/rand (one seeding per Train, same
	// bootstrap protocol as ever); only the per-tree sources are splitmix.
	for t := 0; t < c.Trees; t++ {
		for i := 0; i < sampleN; i++ {
			s.boot[t*sampleN+i] = s.rng.Intn(len(x))
		}
		s.seeds[t] = uint64(s.rng.Int63())
	}
	parallel.For(c.Trees, 1, func(first, end int) {
		for t := first; t < end; t++ {
			lo, hi := t*sampleN, (t+1)*sampleN
			fit := &s.fits[t]
			*fit = treeScratch{
				rng:      splitmix{state: s.seeds[t]},
				keysBuf:  s.keys[lo:hi],
				orderBuf: s.order[lo:hi],
				part:     s.part[lo:hi],
				perm:     s.perm[t*nFeat : (t+1)*nFeat],
			}
			// A tree over sampleN samples has fewer than 2*sampleN nodes,
			// so appending stays inside the tree's share of the slab.
			tr := &f.trees[t]
			tr.nodes = s.nodes[2*lo : 2*lo : 2*hi]
			buildNode(tr, c, &fit.rng, x, y, s.boot[lo:hi], 0, fit)
		}
	})
	return f, nil
}

// resize returns s with length n, reallocating only when its capacity is
// short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// treeScratch is the reusable working memory of one tree fit: split-search
// sort buffers, the stable-partition spill buffer, and the feature-subset
// permutation. One scratch serves an entire tree, so node construction
// allocates nothing.
type treeScratch struct {
	rng      splitmix  // the tree's own source
	keysBuf  []float64 // full-capacity backing for keys
	orderBuf []int     // full-capacity backing for order
	keys     []float64 // current sort view: feature values
	order    []int     // current sort view: sample indices
	part     []int     // right-half spill for the stable partition
	perm     []int     // feature permutation buffer
}

// Len, Less, Swap implement sort.Interface over (keys, order) jointly, so
// one persistent scratch pointer sorts without per-call allocation.
func (s *treeScratch) Len() int           { return len(s.order) }
func (s *treeScratch) Less(a, b int) bool { return s.keys[a] < s.keys[b] }
func (s *treeScratch) Swap(a, b int) {
	s.keys[a], s.keys[b] = s.keys[b], s.keys[a]
	s.order[a], s.order[b] = s.order[b], s.order[a]
}

// buildNode appends the subtree over idx to tr and returns its root index.
// idx is partitioned in place as the tree recurses.
func buildNode(tr *tree, c Config, rng *splitmix, x [][]float64, y []float64, idx []int, depth int, s *treeScratch) int32 {
	me := int32(len(tr.nodes))
	tr.nodes = append(tr.nodes, node{feature: -1, value: meanTargets(y, idx)})
	if depth >= c.MaxDepth || len(idx) < 2*c.MinLeaf || allSame(y, idx) {
		return me
	}
	feat, thresh, ok := bestSplit(c, rng, x, y, idx, s)
	if !ok {
		return me
	}
	// Stable in-place partition: lefts compact forward, rights spill to
	// the scratch buffer and are copied back behind them. Keeping relative
	// order makes the fitted tree independent of partition mechanics.
	nl, nr := 0, 0
	for _, i := range idx {
		if x[i][feat] <= thresh {
			idx[nl] = i
			nl++
		} else {
			s.part[nr] = i
			nr++
		}
	}
	copy(idx[nl:], s.part[:nr])
	if nl < c.MinLeaf || nr < c.MinLeaf {
		return me
	}
	left := buildNode(tr, c, rng, x, y, idx[:nl], depth+1, s)
	right := buildNode(tr, c, rng, x, y, idx[nl:], depth+1, s)
	tr.nodes[me].feature = int32(feat)
	tr.nodes[me].threshold = thresh
	tr.nodes[me].left = left
	tr.nodes[me].right = right
	return me
}

func meanTargets(y []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func allSame(y []float64, idx []int) bool {
	for _, i := range idx[1:] {
		if y[i] != y[idx[0]] {
			return false
		}
	}
	return true
}

// featSubset fills s.perm with a uniform permutation of [0,nFeat) — the
// same Fisher–Yates construction as rand.Perm, drawn into the reusable
// buffer — and returns the first nTry entries.
func featSubset(rng *splitmix, s *treeScratch, nFeat, nTry int) []int {
	perm := s.perm[:nFeat]
	for i := 0; i < nFeat; i++ {
		j := rng.intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	return perm[:nTry]
}

// bestSplit finds the variance-reduction-optimal split over a random
// feature subset, using a sorted sweep with incremental sums.
func bestSplit(c Config, rng *splitmix, x [][]float64, y []float64, idx []int, s *treeScratch) (feat int, thresh float64, ok bool) {
	nFeat := len(x[idx[0]])
	nTry := int(math.Ceil(c.Features * float64(nFeat)))
	feats := featSubset(rng, s, nFeat, nTry)

	n := float64(len(idx))
	var totalSum, totalSq float64
	for _, i := range idx {
		totalSum += y[i]
		totalSq += y[i] * y[i]
	}
	parentSSE := totalSq - totalSum*totalSum/n

	best := -1.0
	keys, order := s.keysBuf[:len(idx)], s.orderBuf[:len(idx)]
	for _, f := range feats {
		copy(order, idx)
		for p, i := range order {
			keys[p] = x[i][f]
		}
		s.keys, s.order = keys, order
		sort.Sort(s)
		var leftSum, leftSq float64
		for pos := 0; pos < len(order)-1; pos++ {
			yi := y[order[pos]]
			leftSum += yi
			leftSq += yi * yi
			v, next := keys[pos], keys[pos+1]
			if v == next {
				continue
			}
			nl := float64(pos + 1)
			nr := n - nl
			rightSum := totalSum - leftSum
			rightSq := totalSq - leftSq
			sse := (leftSq - leftSum*leftSum/nl) + (rightSq - rightSum*rightSum/nr)
			gain := parentSSE - sse
			if gain > best {
				best = gain
				feat = f
				thresh = (v + next) / 2
				ok = true
			}
		}
	}
	if best <= 1e-12 {
		return 0, 0, false
	}
	return feat, thresh, ok
}

// predict walks the flat tree to a leaf.
func (t *tree) predict(x []float64) float64 {
	nodes := t.nodes
	i := int32(0)
	for {
		nd := &nodes[i]
		if nd.feature < 0 {
			return nd.value
		}
		if x[nd.feature] <= nd.threshold {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// Predict returns the forest-mean prediction for x.
func (f *Forest) Predict(x []float64) float64 {
	m, _ := f.PredictVar(x)
	return m
}

// PredictVar returns the mean and across-tree variance for x — the
// uncertainty estimate the Expected Improvement acquisition requires.
func (f *Forest) PredictVar(x []float64) (mean, variance float64) {
	if len(x) != f.nFeat {
		panic(fmt.Sprintf("rf: predict with %d features, trained on %d", len(x), f.nFeat))
	}
	var s, sq float64
	for i := range f.trees {
		p := f.trees[i].predict(x)
		s += p
		sq += p * p
	}
	n := float64(len(f.trees))
	mean = s / n
	variance = sq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }
