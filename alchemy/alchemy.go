// Package alchemy is the Homunculus frontend DSL (§3.1): a declarative
// interface where a network operator specifies *what* they want — the
// training data, the objective metric, the deployment target, and its
// performance/resource constraints — and never writes model definitions
// or training loops. It is the Go rendering of the paper's
// Python-embedded DSL (Figure 3):
//
//	loader := alchemy.DataLoaderFunc(loadAD)                    // @DataLoader
//	model := alchemy.NewModel(alchemy.ModelSpec{                // Model({...})
//	    Name:               "anomaly_detection",
//	    OptimizationMetric: "f1",
//	    Algorithms:         []string{"dnn"},
//	    DataLoader:         loader,
//	})
//	platform := alchemy.Taurus()                                // Platforms.Taurus()
//	platform.Constrain(alchemy.Constraints{                     // platform.constrain(...)
//	    Performance: alchemy.Performance{ThroughputGPkts: 1, LatencyNS: 500},
//	    Resources:   alchemy.Resources{Rows: 16, Cols: 16},
//	})
//	platform.Schedule(model)                                    // platform.schedule(...)
//	pipeline, err := homunculus.Generate(ctx, platform)         // homunculus.generate(...)
//
// Composition uses Seq (the > operator) and Par (the | operator):
// platform.Schedule(alchemy.Seq(m1, alchemy.Par(m2, m3), m4)).
package alchemy

import (
	"fmt"
	"slices"

	"repro/internal/dataset"
	"repro/internal/ir"
)

// Data is what a DataLoader produces: train/test features and labels,
// optionally with feature names (required for model fusion).
type Data struct {
	TrainX [][]float64
	TrainY []int
	TestX  [][]float64
	TestY  []int
	// FeatureNames labels the columns; generated code uses them for
	// header-field extraction.
	FeatureNames []string
}

// Validate reports data shape errors.
func (d *Data) Validate() error {
	if d == nil {
		return fmt.Errorf("alchemy: nil data")
	}
	if len(d.TrainX) == 0 || len(d.TestX) == 0 {
		return fmt.Errorf("alchemy: empty train or test split")
	}
	if len(d.TrainX) != len(d.TrainY) {
		return fmt.Errorf("alchemy: %d train rows but %d labels", len(d.TrainX), len(d.TrainY))
	}
	if len(d.TestX) != len(d.TestY) {
		return fmt.Errorf("alchemy: %d test rows but %d labels", len(d.TestX), len(d.TestY))
	}
	width := len(d.TrainX[0])
	for i, r := range d.TrainX {
		if len(r) != width {
			return fmt.Errorf("alchemy: ragged train row %d", i)
		}
	}
	for i, r := range d.TestX {
		if len(r) != width {
			return fmt.Errorf("alchemy: ragged test row %d", i)
		}
	}
	if d.FeatureNames != nil && len(d.FeatureNames) != width {
		return fmt.Errorf("alchemy: %d feature names for %d features", len(d.FeatureNames), width)
	}
	return nil
}

// Datasets converts the loader output into internal datasets.
func (d *Data) Datasets() (train, test *dataset.Dataset, err error) {
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	mk := func(x [][]float64, y []int) *dataset.Dataset {
		ds := dataset.New(len(x), len(x[0]))
		for i, row := range x {
			copy(ds.X.Row(i), row)
			ds.Y[i] = y[i]
		}
		if d.FeatureNames != nil {
			ds.FeatureNames = append([]string{}, d.FeatureNames...)
		}
		return ds
	}
	train, test = mk(d.TrainX, d.TrainY), mk(d.TestX, d.TestY)
	if err := train.Validate(); err != nil {
		return nil, nil, fmt.Errorf("alchemy: train data: %w", err)
	}
	if err := test.Validate(); err != nil {
		return nil, nil, fmt.Errorf("alchemy: test data: %w", err)
	}
	return train, test, nil
}

// FromDatasets renders internal train/test datasets as loader output —
// the converter every bundled-generator DataLoader (CLI, daemon,
// experiment sweeps) funnels through.
func FromDatasets(train, test *dataset.Dataset) *Data {
	data := &Data{FeatureNames: train.FeatureNames}
	for i := 0; i < train.Len(); i++ {
		data.TrainX = append(data.TrainX, append([]float64{}, train.X.Row(i)...))
		data.TrainY = append(data.TrainY, train.Y[i])
	}
	for i := 0; i < test.Len(); i++ {
		data.TestX = append(data.TestX, append([]float64{}, test.X.Row(i)...))
		data.TestY = append(data.TestY, test.Y[i])
	}
	return data
}

// DataLoader supplies and preprocesses the labeled dataset (the
// @DataLoader decorator).
type DataLoader interface {
	Load() (*Data, error)
}

// DataLoaderFunc adapts a function to DataLoader.
type DataLoaderFunc func() (*Data, error)

// Load implements DataLoader.
func (f DataLoaderFunc) Load() (*Data, error) { return f() }

// MetricNames lists the accepted optimization metrics.
func MetricNames() []string { return []string{"f1", "accuracy", "vmeasure"} }

// ModelSpec mirrors the arguments of Alchemy's Model class.
type ModelSpec struct {
	Name string
	// OptimizationMetric is the objective ("f1", "accuracy", "vmeasure").
	OptimizationMetric string
	// Algorithms restricts the search ("dnn", "svm", "kmeans", "dtree");
	// empty means every algorithm the platform supports.
	Algorithms []string
	DataLoader DataLoader
	// Normalize standardizes features (fit on train, folded into the
	// generated pipeline). Defaults to true via NewModel.
	Normalize *bool
}

// Model is a declared application model (not yet trained — Homunculus
// searches, trains, and maps it during Generate).
type Model struct {
	Spec ModelSpec
}

// NewModel declares a model from its spec, applying defaults
// (metric "f1", normalization on).
func NewModel(spec ModelSpec) *Model {
	if spec.OptimizationMetric == "" {
		spec.OptimizationMetric = "f1"
	}
	if spec.Normalize == nil {
		t := true
		spec.Normalize = &t
	}
	return &Model{Spec: spec}
}

// Validate reports specification errors.
func (m *Model) Validate() error {
	if m == nil {
		return fmt.Errorf("alchemy: nil model")
	}
	if m.Spec.Name == "" {
		return fmt.Errorf("alchemy: model with empty name")
	}
	if m.Spec.DataLoader == nil {
		return fmt.Errorf("alchemy: model %q has no data loader", m.Spec.Name)
	}
	if !slices.Contains(MetricNames(), m.Spec.OptimizationMetric) {
		return fmt.Errorf("alchemy: model %q has unknown metric %q (accepted: %v)",
			m.Spec.Name, m.Spec.OptimizationMetric, MetricNames())
	}
	for _, a := range m.Spec.Algorithms {
		if _, err := ir.ParseKind(a); err != nil {
			return fmt.Errorf("alchemy: model %q: %w", m.Spec.Name, err)
		}
	}
	return nil
}

// schedulable is satisfied by *Model and *Schedule.
type schedulable interface{ node() *Schedule }

// Op is a composition operator.
type Op int

// Composition operators: Seq is Alchemy's >, Par is |.
const (
	OpSeq Op = iota
	OpPar
	opLeaf
)

// Schedule is a composition DAG over models.
type Schedule struct {
	Op       Op
	Children []*Schedule
	Model    *Model
	// Mapper optionally transforms the upstream outputs into this node's
	// inputs (the IOMap construct). Recorded for codegen; identity if nil.
	Mapper *IOMap
}

func (s *Schedule) node() *Schedule { return s }

// node for Model: wrap as a leaf.
func (m *Model) node() *Schedule { return &Schedule{Op: opLeaf, Model: m} }

// Seq composes models/schedules sequentially (the > operator).
func Seq(items ...schedulable) *Schedule { return compose(OpSeq, items) }

// Par composes models/schedules in parallel (the | operator).
func Par(items ...schedulable) *Schedule { return compose(OpPar, items) }

func compose(op Op, items []schedulable) *Schedule {
	s := &Schedule{Op: op}
	for _, it := range items {
		if it == nil {
			s.Children = append(s.Children, nil)
			continue
		}
		s.Children = append(s.Children, it.node())
	}
	return s
}

// Validate reports scheduling errors.
func (s *Schedule) Validate() error {
	if s == nil {
		return fmt.Errorf("alchemy: nil schedule")
	}
	if s.Op == opLeaf {
		return s.Model.Validate()
	}
	if len(s.Children) == 0 {
		return fmt.Errorf("alchemy: empty composition")
	}
	for _, ch := range s.Children {
		if ch == nil {
			return fmt.Errorf("alchemy: nil child in composition")
		}
		if err := ch.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Models returns the scheduled models in order.
func (s *Schedule) Models() []*Model {
	if s == nil {
		return nil
	}
	if s.Op == opLeaf {
		return []*Model{s.Model}
	}
	var out []*Model
	for _, ch := range s.Children {
		out = append(out, ch.Models()...)
	}
	return out
}

// IOMap connects models' inputs and outputs (§3.1.1). The mapper function
// receives the upstream model's output vector and produces the downstream
// input vector; WithIOMap attaches it to a schedule node.
type IOMap struct {
	Name   string
	Mapper func(outputs []float64) []float64
}

// WithIOMap attaches an IO mapping to the schedule node and returns it
// (builder style).
func (s *Schedule) WithIOMap(m *IOMap) *Schedule {
	s.Mapper = m
	return s
}
