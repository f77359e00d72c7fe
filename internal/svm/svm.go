// Package svm implements the linear support-vector machines IIsy maps onto
// match-action tables: hinge-loss SGD training with L2 regularization and
// one-vs-rest multiclass. Linear SVMs are one of the classical algorithms
// the Homunculus optimization core can select for MAT backends (§3.2.1);
// each feature's weighted contribution becomes one table lookup.
package svm

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/tensor"
)

// Config holds the SVM hyperparameters the BO search tunes.
type Config struct {
	Features  int
	Classes   int
	LearnRate float64
	Lambda    float64 // L2 regularization strength
	Epochs    int
	Seed      int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Features <= 0 {
		return fmt.Errorf("svm: Features must be positive, got %d", c.Features)
	}
	if c.Classes < 2 {
		return fmt.Errorf("svm: Classes must be >= 2, got %d", c.Classes)
	}
	if c.LearnRate <= 0 {
		return fmt.Errorf("svm: LearnRate must be positive, got %v", c.LearnRate)
	}
	if c.Lambda < 0 {
		return fmt.Errorf("svm: Lambda must be >= 0, got %v", c.Lambda)
	}
	if c.Epochs <= 0 {
		return fmt.Errorf("svm: Epochs must be positive, got %d", c.Epochs)
	}
	return nil
}

// Model is a trained one-vs-rest linear SVM: one (w, b) per class.
// For binary problems a single separating hyperplane is kept (class 1
// positive).
type Model struct {
	Config Config
	// W[k] is the weight vector for class k's one-vs-rest problem.
	W [][]float64
	B []float64
}

// Train fits an SVM with per-class hinge-loss SGD (Pegasos-style decay).
func Train(c Config, d *dataset.Dataset) (*Model, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if d.Features() != c.Features {
		return nil, fmt.Errorf("svm: dataset has %d features, config says %d", d.Features(), c.Features)
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("svm: empty training set")
	}
	m := &Model{
		Config: c,
		W:      make([][]float64, c.Classes),
		B:      make([]float64, c.Classes),
	}
	for k := range m.W {
		m.W[k] = make([]float64, c.Features)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	idx := tensor.Range(d.Len())
	t := 0
	for epoch := 0; epoch < c.Epochs; epoch++ {
		tensor.Shuffle(rng, idx)
		for _, i := range idx {
			t++
			lr := c.LearnRate / (1 + c.LearnRate*c.Lambda*float64(t))
			x := d.X.Row(i)
			for k := 0; k < c.Classes; k++ {
				y := -1.0
				if d.Y[i] == k {
					y = 1.0
				}
				margin := y * (tensor.Dot(m.W[k], x) + m.B[k])
				// L2 shrinkage.
				if c.Lambda > 0 {
					tensor.Scale(m.W[k], 1-lr*c.Lambda)
				}
				if margin < 1 {
					tensor.Axpy(m.W[k], lr*y, x)
					m.B[k] += lr * y
				}
			}
		}
	}
	return m, nil
}

// Score returns the per-class decision values for feature vector x.
func (m *Model) Score(x []float64) []float64 {
	out := make([]float64, m.Config.Classes)
	for k := range out {
		out[k] = tensor.Dot(m.W[k], x) + m.B[k]
	}
	return out
}

// PredictVec classifies one sample (arg-max decision value).
func (m *Model) PredictVec(x []float64) int {
	return tensor.ArgMax(m.Score(x))
}

// Predict classifies every sample of d.
func (m *Model) Predict(d *dataset.Dataset) []int {
	out := make([]int, d.Len())
	for i := range out {
		out[i] = m.PredictVec(d.X.Row(i))
	}
	return out
}
