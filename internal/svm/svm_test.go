package svm

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/metrics"
)

// linearly separable blobs
func blobs(n, classes int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(n, 2)
	for i := 0; i < n; i++ {
		c := i % classes
		cx := float64(c%2)*4 - 2
		cy := float64(c/2)*4 - 2
		d.X.Set(i, 0, cx+rng.NormFloat64()*0.5)
		d.X.Set(i, 1, cy+rng.NormFloat64()*0.5)
		d.Y[i] = c
	}
	return d
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Features: 0, Classes: 2, LearnRate: 1, Epochs: 1},
		{Features: 1, Classes: 1, LearnRate: 1, Epochs: 1},
		{Features: 1, Classes: 2, LearnRate: 0, Epochs: 1},
		{Features: 1, Classes: 2, LearnRate: 1, Lambda: -1, Epochs: 1},
		{Features: 1, Classes: 2, LearnRate: 1, Epochs: 0},
	}
	for i, c := range bad {
		if _, err := Train(c, dataset.New(1, 1)); err == nil {
			t.Fatalf("case %d must fail", i)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	c := Config{Features: 3, Classes: 2, LearnRate: 0.1, Epochs: 1}
	if _, err := Train(c, dataset.New(5, 2)); err == nil {
		t.Fatal("feature mismatch must error")
	}
	if _, err := Train(c, dataset.New(0, 3)); err == nil {
		t.Fatal("empty set must error")
	}
}

func TestBinarySeparable(t *testing.T) {
	d := blobs(400, 2, 1)
	c := Config{Features: 2, Classes: 2, LearnRate: 0.1, Lambda: 0.001, Epochs: 20, Seed: 1}
	m, err := Train(c, d)
	if err != nil {
		t.Fatal(err)
	}
	acc := metrics.FromLabels(d.Y, m.Predict(d), 2).Accuracy()
	if acc < 0.97 {
		t.Fatalf("separable accuracy %v", acc)
	}
}

func TestMulticlass(t *testing.T) {
	d := blobs(600, 4, 2)
	c := Config{Features: 2, Classes: 4, LearnRate: 0.1, Lambda: 0.001, Epochs: 30, Seed: 2}
	m, err := Train(c, d)
	if err != nil {
		t.Fatal(err)
	}
	acc := metrics.FromLabels(d.Y, m.Predict(d), 4).Accuracy()
	if acc < 0.9 {
		t.Fatalf("multiclass accuracy %v", acc)
	}
}

func TestDeterministic(t *testing.T) {
	d := blobs(100, 2, 3)
	c := Config{Features: 2, Classes: 2, LearnRate: 0.1, Epochs: 3, Seed: 7}
	m1, _ := Train(c, d)
	m2, _ := Train(c, d)
	for k := range m1.W {
		for j := range m1.W[k] {
			if m1.W[k][j] != m2.W[k][j] {
				t.Fatal("training must be deterministic")
			}
		}
	}
}

func TestScoreAndPredictAgree(t *testing.T) {
	d := blobs(100, 2, 4)
	c := Config{Features: 2, Classes: 2, LearnRate: 0.1, Epochs: 5, Seed: 3}
	m, _ := Train(c, d)
	for i := 0; i < 10; i++ {
		s := m.Score(d.X.Row(i))
		if len(s) != 2 {
			t.Fatal("score length wrong")
		}
		want := 0
		if s[1] > s[0] {
			want = 1
		}
		if m.PredictVec(d.X.Row(i)) != want {
			t.Fatal("PredictVec must arg-max Score")
		}
	}
}
