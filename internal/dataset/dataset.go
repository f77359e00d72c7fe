// Package dataset provides the labeled-dataset container shared by every
// trainer and synthetic generator, plus CSV persistence, normalization,
// splitting, and one-hot encoding. It plays the role of the DataLoader
// output in the Alchemy frontend: a pair of (train, test) feature/label
// sets the optimization core can hand to any candidate algorithm.
package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/tensor"
)

// Dataset is a labeled feature matrix: X.Rows samples, X.Cols features,
// with integer class labels Y (len == X.Rows).
type Dataset struct {
	X *tensor.Matrix
	Y []int
	// FeatureNames optionally names the columns (used by code generators
	// to emit readable header-field extraction).
	FeatureNames []string
}

// New returns an empty dataset with n samples of d features.
func New(n, d int) *Dataset {
	return &Dataset{X: tensor.New(n, d), Y: make([]int, n)}
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.X.Rows }

// Features returns the number of feature columns.
func (d *Dataset) Features() int { return d.X.Cols }

// Classes returns 1 + the maximum label (minimum 1).
func (d *Dataset) Classes() int {
	max := 0
	for _, y := range d.Y {
		if y > max {
			max = y
		}
	}
	return max + 1
}

// Validate checks internal consistency.
func (d *Dataset) Validate() error {
	if d.X == nil {
		return fmt.Errorf("dataset: nil feature matrix")
	}
	if len(d.Y) != d.X.Rows {
		return fmt.Errorf("dataset: %d labels for %d samples", len(d.Y), d.X.Rows)
	}
	if d.FeatureNames != nil && len(d.FeatureNames) != d.X.Cols {
		return fmt.Errorf("dataset: %d feature names for %d features", len(d.FeatureNames), d.X.Cols)
	}
	for i, y := range d.Y {
		if y < 0 {
			return fmt.Errorf("dataset: negative label %d at sample %d", y, i)
		}
	}
	for i, v := range d.X.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dataset: non-finite feature at flat index %d", i)
		}
	}
	return nil
}

// Clone deep-copies the dataset.
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{X: d.X.Clone(), Y: append([]int{}, d.Y...)}
	if d.FeatureNames != nil {
		c.FeatureNames = append([]string{}, d.FeatureNames...)
	}
	return c
}

// Subset returns a new dataset containing the given sample indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	s := New(len(idx), d.Features())
	s.FeatureNames = d.FeatureNames
	for i, src := range idx {
		copy(s.X.Row(i), d.X.Row(src))
		s.Y[i] = d.Y[src]
	}
	return s
}

// SelectFeatures returns a new dataset keeping only the given feature
// columns, in the given order. Its caller is nslkdd's feature-wise split,
// which builds the two overlapping feature views Table 4 fuses.
func (d *Dataset) SelectFeatures(cols []int) (*Dataset, error) {
	for _, c := range cols {
		if c < 0 || c >= d.Features() {
			return nil, fmt.Errorf("dataset: feature index %d out of range [0,%d)", c, d.Features())
		}
	}
	s := New(d.Len(), len(cols))
	for i := 0; i < d.Len(); i++ {
		row := d.X.Row(i)
		dst := s.X.Row(i)
		for j, c := range cols {
			dst[j] = row[c]
		}
	}
	copy(s.Y, d.Y)
	if d.FeatureNames != nil {
		s.FeatureNames = make([]string, len(cols))
		for j, c := range cols {
			s.FeatureNames[j] = d.FeatureNames[c]
		}
	}
	return s, nil
}

// Split partitions the dataset into train/test with the given train
// fraction, shuffling with rng. frac is clamped to [0, 1].
func (d *Dataset) Split(rng *rand.Rand, frac float64) (train, test *Dataset) {
	frac = tensor.Clamp(frac, 0, 1)
	idx := tensor.Range(d.Len())
	tensor.Shuffle(rng, idx)
	cut := int(math.Round(frac * float64(d.Len())))
	return d.Subset(idx[:cut]), d.Subset(idx[cut:])
}

// StratifiedSplit splits preserving per-class proportions.
func (d *Dataset) StratifiedSplit(rng *rand.Rand, frac float64) (train, test *Dataset) {
	frac = tensor.Clamp(frac, 0, 1)
	byClass := map[int][]int{}
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	var trainIdx, testIdx []int
	for _, c := range classes {
		idx := byClass[c]
		tensor.Shuffle(rng, idx)
		cut := int(math.Round(frac * float64(len(idx))))
		trainIdx = append(trainIdx, idx[:cut]...)
		testIdx = append(testIdx, idx[cut:]...)
	}
	tensor.Shuffle(rng, trainIdx)
	tensor.Shuffle(rng, testIdx)
	return d.Subset(trainIdx), d.Subset(testIdx)
}

// Normalizer holds per-feature affine scaling learned from a training set
// so the identical transform can be applied at inference (and encoded into
// the generated pipeline's feature-extraction stage).
type Normalizer struct {
	Mean, Std []float64
}

// FitNormalizer computes per-column mean/std from d. Zero-variance columns
// get Std 1 so they pass through unchanged.
func FitNormalizer(d *Dataset) *Normalizer {
	n := &Normalizer{Mean: make([]float64, d.Features()), Std: make([]float64, d.Features())}
	for j := 0; j < d.Features(); j++ {
		col := make([]float64, d.Len())
		for i := 0; i < d.Len(); i++ {
			col[i] = d.X.At(i, j)
		}
		n.Mean[j] = tensor.Mean(col)
		sd := math.Sqrt(tensor.Variance(col))
		if sd < 1e-12 {
			sd = 1
		}
		n.Std[j] = sd
	}
	return n
}

// Apply standardizes d in place: x' = (x - mean) / std.
func (n *Normalizer) Apply(d *Dataset) {
	if len(n.Mean) != d.Features() {
		panic(fmt.Sprintf("dataset: normalizer for %d features applied to %d", len(n.Mean), d.Features()))
	}
	for i := 0; i < d.Len(); i++ {
		row := d.X.Row(i)
		for j := range row {
			row[j] = (row[j] - n.Mean[j]) / n.Std[j]
		}
	}
}

// ApplyVec standardizes a single feature vector in place.
func (n *Normalizer) ApplyVec(x []float64) {
	for j := range x {
		x[j] = (x[j] - n.Mean[j]) / n.Std[j]
	}
}

// OneHot encodes labels as a Len×classes matrix of 0/1 rows.
func (d *Dataset) OneHot(classes int) *tensor.Matrix {
	m := tensor.New(d.Len(), classes)
	for i, y := range d.Y {
		if y >= 0 && y < classes {
			m.Set(i, y, 1)
		}
	}
	return m
}

// ClassCounts returns the number of samples per class label.
func (d *Dataset) ClassCounts() map[int]int {
	counts := map[int]int{}
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}

// WriteCSV streams the dataset as CSV with a header row
// (feature names or f0..fN, then "label").
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, d.Features()+1)
	for j := 0; j < d.Features(); j++ {
		if d.FeatureNames != nil {
			header[j] = d.FeatureNames[j]
		} else {
			header[j] = fmt.Sprintf("f%d", j)
		}
	}
	header[d.Features()] = "label"
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	rec := make([]string, d.Features()+1)
	for i := 0; i < d.Len(); i++ {
		row := d.X.Row(i)
		for j, v := range row {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		rec[d.Features()] = strconv.Itoa(d.Y[i])
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a dataset written by WriteCSV (header row, float features,
// trailing integer label column).
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: read csv: %w", err)
	}
	if len(records) < 1 {
		return nil, fmt.Errorf("dataset: empty csv")
	}
	header := records[0]
	if len(header) < 2 {
		return nil, fmt.Errorf("dataset: need at least one feature and a label column")
	}
	nFeat := len(header) - 1
	d := New(len(records)-1, nFeat)
	d.FeatureNames = append([]string{}, header[:nFeat]...)
	for i, rec := range records[1:] {
		if len(rec) != nFeat+1 {
			return nil, fmt.Errorf("dataset: row %d has %d fields, want %d", i, len(rec), nFeat+1)
		}
		row := d.X.Row(i)
		for j := 0; j < nFeat; j++ {
			v, err := strconv.ParseFloat(rec[j], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: row %d col %d: %w", i, j, err)
			}
			row[j] = v
		}
		y, err := strconv.Atoi(rec[nFeat])
		if err != nil {
			return nil, fmt.Errorf("dataset: row %d label: %w", i, err)
		}
		d.Y[i] = y
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Concat appends the samples of other (same feature count) to d,
// returning a new dataset. Used by model fusion to build the joint
// training set of two applications (§3.2.5).
func Concat(a, b *Dataset) (*Dataset, error) {
	if a.Features() != b.Features() {
		return nil, fmt.Errorf("dataset: concat feature mismatch %d vs %d", a.Features(), b.Features())
	}
	out := New(a.Len()+b.Len(), a.Features())
	out.FeatureNames = a.FeatureNames
	for i := 0; i < a.Len(); i++ {
		copy(out.X.Row(i), a.X.Row(i))
		out.Y[i] = a.Y[i]
	}
	for i := 0; i < b.Len(); i++ {
		copy(out.X.Row(a.Len()+i), b.X.Row(i))
		out.Y[a.Len()+i] = b.Y[i]
	}
	return out, nil
}

// FeatureOverlap returns the fraction of feature names shared between two
// datasets (Jaccard similarity). The optimization core uses this to decide
// whether two applications are fusion candidates (§3.2.5: "if there are a
// certain number of features in common, it will attempt to build a single
// model to serve both datasets").
func FeatureOverlap(a, b *Dataset) float64 {
	if a.FeatureNames == nil || b.FeatureNames == nil {
		return 0
	}
	set := map[string]bool{}
	for _, n := range a.FeatureNames {
		set[n] = true
	}
	inter, union := 0, len(set)
	for _, n := range b.FeatureNames {
		if set[n] {
			inter++
		} else {
			union++
		}
	}
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
