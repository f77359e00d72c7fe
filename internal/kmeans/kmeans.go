// Package kmeans implements k-means clustering with k-means++ seeding —
// the algorithm Homunculus generates for IIsy MAT backends in the
// Figure-7 experiment, where each cluster consumes one match-action table
// and shrinking the table budget forces coarser clusterings.
package kmeans

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/tensor"
)

// Config holds the clustering parameters.
type Config struct {
	K        int // number of clusters
	MaxIters int
	Seed     int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.K <= 0 {
		return fmt.Errorf("kmeans: K must be positive, got %d", c.K)
	}
	if c.MaxIters <= 0 {
		return fmt.Errorf("kmeans: MaxIters must be positive, got %d", c.MaxIters)
	}
	return nil
}

// Model is a fitted clustering: K centroids in feature space.
type Model struct {
	Config    Config
	Centroids *tensor.Matrix // K × features
	// Inertia is the final sum of squared distances to assigned centroids.
	Inertia float64
	// Iters is the number of Lloyd iterations run before convergence.
	Iters int
}

// Train fits k-means on the features of d (labels ignored) using
// k-means++ initialization and Lloyd iterations until assignment
// convergence or MaxIters.
func Train(c Config, d *dataset.Dataset) (*Model, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if d.Len() < c.K {
		return nil, fmt.Errorf("kmeans: %d samples < K=%d", d.Len(), c.K)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	nFeat := d.Features()
	centroids := initPlusPlus(rng, d, c.K)

	assign := make([]int, d.Len())
	for i := range assign {
		assign[i] = -1
	}
	m := &Model{Config: c, Centroids: centroids}
	// The centroid update's scratch, zeroed at each use.
	counts := make([]int, c.K)
	sums := tensor.New(c.K, nFeat)
	for iter := 0; iter < c.MaxIters; iter++ {
		m.Iters = iter + 1
		changed := false
		var inertia float64
		for i := 0; i < d.Len(); i++ {
			k, dist := nearest(centroids, d.X.Row(i))
			if k != assign[i] {
				assign[i] = k
				changed = true
			}
			inertia += dist
		}
		m.Inertia = inertia
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		clear(counts)
		clear(sums.Data)
		for i := 0; i < d.Len(); i++ {
			counts[assign[i]]++
			tensor.Axpy(sums.Row(assign[i]), 1, d.X.Row(i))
		}
		for k := 0; k < c.K; k++ {
			if counts[k] == 0 {
				// Re-seed an empty cluster at a random sample.
				copy(centroids.Row(k), d.X.Row(rng.Intn(d.Len())))
				continue
			}
			row := sums.Row(k)
			tensor.Scale(row, 1/float64(counts[k]))
			copy(centroids.Row(k), row)
		}
	}
	return m, nil
}

// initPlusPlus performs k-means++ seeding: first centroid uniform, each
// subsequent centroid sampled proportional to squared distance from the
// nearest existing centroid.
func initPlusPlus(rng *rand.Rand, d *dataset.Dataset, k int) *tensor.Matrix {
	centroids := tensor.New(k, d.Features())
	copy(centroids.Row(0), d.X.Row(rng.Intn(d.Len())))
	dists := make([]float64, d.Len())
	for c := 1; c < k; c++ {
		var total float64
		for i := 0; i < d.Len(); i++ {
			best := math.Inf(1)
			for cc := 0; cc < c; cc++ {
				if sq := tensor.SqDist(d.X.Row(i), centroids.Row(cc)); sq < best {
					best = sq
				}
			}
			dists[i] = best
			total += best
		}
		if total == 0 {
			// All points coincide with existing centroids; pick uniformly.
			copy(centroids.Row(c), d.X.Row(rng.Intn(d.Len())))
			continue
		}
		r := rng.Float64() * total
		pick := 0
		for i, v := range dists {
			r -= v
			if r <= 0 {
				pick = i
				break
			}
		}
		copy(centroids.Row(c), d.X.Row(pick))
	}
	return centroids
}

func nearest(centroids *tensor.Matrix, x []float64) (int, float64) {
	best, bi := math.Inf(1), 0
	for k := 0; k < centroids.Rows; k++ {
		if sq := tensor.SqDist(x, centroids.Row(k)); sq < best {
			best, bi = sq, k
		}
	}
	return bi, best
}

// AssignVec returns the cluster index of a single feature vector.
func (m *Model) AssignVec(x []float64) int {
	k, _ := nearest(m.Centroids, x)
	return k
}

// Assign returns the cluster index of every sample of d.
func (m *Model) Assign(d *dataset.Dataset) []int {
	out := make([]int, d.Len())
	for i := range out {
		out[i] = m.AssignVec(d.X.Row(i))
	}
	return out
}

// K returns the cluster count.
func (m *Model) K() int { return m.Config.K }
