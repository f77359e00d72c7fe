package alchemy

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/ir"
)

func sampleData(seed int64) *Data {
	rng := rand.New(rand.NewSource(seed))
	mk := func(n int) ([][]float64, []int) {
		x := make([][]float64, n)
		y := make([]int, n)
		for i := 0; i < n; i++ {
			c := i % 2
			x[i] = []float64{float64(c) + rng.NormFloat64()*0.3, rng.NormFloat64()}
			y[i] = c
		}
		return x, y
	}
	d := &Data{FeatureNames: []string{"a", "b"}}
	d.TrainX, d.TrainY = mk(100)
	d.TestX, d.TestY = mk(40)
	return d
}

func TestDataValidate(t *testing.T) {
	if err := sampleData(1).Validate(); err != nil {
		t.Fatal(err)
	}
	var nilData *Data
	if nilData.Validate() == nil {
		t.Fatal("nil data must fail")
	}
	d := sampleData(1)
	d.TrainY = d.TrainY[:10]
	if d.Validate() == nil {
		t.Fatal("label mismatch must fail")
	}
	d2 := sampleData(1)
	d2.TrainX[5] = []float64{1}
	if d2.Validate() == nil {
		t.Fatal("ragged rows must fail")
	}
	d3 := sampleData(1)
	d3.FeatureNames = []string{"only_one"}
	if d3.Validate() == nil {
		t.Fatal("wrong name count must fail")
	}
	d4 := sampleData(1)
	d4.TestX, d4.TestY = nil, nil
	if d4.Validate() == nil {
		t.Fatal("empty test must fail")
	}
}

func TestDatasets(t *testing.T) {
	train, test, err := sampleData(2).Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 100 || test.Len() != 40 || train.Features() != 2 {
		t.Fatal("dataset conversion wrong")
	}
	if train.FeatureNames[1] != "b" {
		t.Fatal("feature names must carry over")
	}
}

func TestNewModelDefaults(t *testing.T) {
	m := NewModel(ModelSpec{Name: "x", DataLoader: DataLoaderFunc(func() (*Data, error) { return sampleData(3), nil })})
	if m.Spec.OptimizationMetric != "f1" {
		t.Fatal("default metric must be f1")
	}
	if m.Spec.Normalize == nil || !*m.Spec.Normalize {
		t.Fatal("normalization must default on")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestModelValidate(t *testing.T) {
	var nilModel *Model
	if nilModel.Validate() == nil {
		t.Fatal("nil model must fail")
	}
	if NewModel(ModelSpec{Name: "", DataLoader: DataLoaderFunc(nil)}).Validate() == nil {
		t.Fatal("empty name must fail")
	}
	if NewModel(ModelSpec{Name: "x"}).Validate() == nil {
		t.Fatal("missing loader must fail")
	}
	m := NewModel(ModelSpec{Name: "x", OptimizationMetric: "zzz",
		DataLoader: DataLoaderFunc(func() (*Data, error) { return nil, nil })})
	if m.Validate() == nil {
		t.Fatal("unknown metric must fail")
	}
	m = NewModel(ModelSpec{Name: "x", Algorithms: []string{"dtree", "bogus"},
		DataLoader: DataLoaderFunc(func() (*Data, error) { return nil, nil })})
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), `"bogus"`) ||
		!strings.Contains(err.Error(), fmt.Sprint(ir.KindNames())) {
		t.Fatalf("unknown algorithm must fail listing the accepted names, got %v", err)
	}
}

func mkModel(name string) *Model {
	return NewModel(ModelSpec{Name: name,
		DataLoader: DataLoaderFunc(func() (*Data, error) { return sampleData(4), nil })})
}

func TestSeqParComposition(t *testing.T) {
	a, b, c := mkModel("a"), mkModel("b"), mkModel("c")
	s := Seq(a, Par(b, c))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	models := s.Models()
	if len(models) != 3 || models[0].Spec.Name != "a" || models[2].Spec.Name != "c" {
		t.Fatalf("Models order wrong: %d", len(models))
	}
}

func TestScheduleValidateErrors(t *testing.T) {
	var nilSched *Schedule
	if nilSched.Validate() == nil {
		t.Fatal("nil schedule must fail")
	}
	if Seq().Validate() == nil {
		t.Fatal("empty composition must fail")
	}
	if Seq(nil).Validate() == nil {
		t.Fatal("nil child must fail")
	}
}

func TestScheduleCompose(t *testing.T) {
	a, b, c, d := mkModel("a"), mkModel("b"), mkModel("c"), mkModel("d")
	// Two distinct declarations that share a name: each leaf must get
	// its own declaration's model, never the other's.
	x1, x2 := mkModel("x"), mkModel("x")
	built := map[*Model]*ir.Model{}
	for _, m := range []*Model{a, b, c, d, x1, x2} {
		built[m] = &ir.Model{Name: m.Spec.Name}
	}
	cases := []struct {
		name     string
		sched    *Schedule
		compiled []*Model // the declarations that compiled; others map to nil
		want     []*Model // compiled leaves in schedule order
		depth    int
	}{
		{"seq x4", Seq(a, a, a, a), []*Model{a}, []*Model{a, a, a, a}, 4},
		{"par x4", Par(a, a, a, a), []*Model{a}, []*Model{a, a, a, a}, 1},
		{"a > (b | c) > d", Seq(a, Par(b, c), d), []*Model{a, b, c, d}, []*Model{a, b, c, d}, 3},
		{"schedule order", Seq(d, Par(c, b), a), []*Model{a, b, c, d}, []*Model{d, c, b, a}, 3},
		{"par of chains", Par(Seq(a, b, c), d), []*Model{a, b, c, d}, []*Model{a, b, c, d}, 3},
		{"lone leaf", a.node(), []*Model{a}, []*Model{a}, 1},
		{"lone compiled leaf in seq", Seq(a, b), []*Model{a}, []*Model{a}, 1},
		{"lone compiled leaf in nested par", Seq(a, Par(b, c), d), []*Model{c}, []*Model{c}, 1},
		{"uncompiled leaves count nothing", Seq(a, Par(b, c), d), []*Model{a, b}, []*Model{a, b}, 2},
		{"no compiled leaf", Seq(a, Par(b, c)), nil, nil, 0},
		{"shared name", Seq(x1, x2), []*Model{x1, x2}, []*Model{x1, x2}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			compiled := map[*Model]*ir.Model{}
			for _, m := range tc.compiled {
				compiled[m] = built[m]
			}
			models, depth := tc.sched.Compose(func(m *Model) *ir.Model { return compiled[m] })
			var want []*ir.Model
			for _, m := range tc.want {
				want = append(want, built[m])
			}
			if !slices.Equal(models, want) || depth != tc.depth {
				t.Fatalf("Compose = %d models, depth %d; want %d models, depth %d (models equal: %v)",
					len(models), depth, len(want), tc.depth, slices.Equal(models, want))
			}
		})
	}
}

func TestIOMapAttaches(t *testing.T) {
	a, b := mkModel("a"), mkModel("b")
	m := &IOMap{Name: "route", Mapper: func(o []float64) []float64 { return o }}
	s := Seq(a, b).WithIOMap(m)
	if s.Mapper == nil || s.Mapper.Name != "route" {
		t.Fatal("IOMap must attach")
	}
}

func TestPlatformDefaults(t *testing.T) {
	p := Taurus()
	if p.Constraints.Resources.Rows != 16 || p.Constraints.Performance.LatencyNS != 500 {
		t.Fatalf("taurus defaults: %+v", p.Constraints)
	}
	if Tofino().Constraints.Resources.Tables != 32 {
		t.Fatal("tofino defaults")
	}
	if FPGA().Constraints.Resources.MaxLUTPct != 100 {
		t.Fatal("fpga defaults")
	}
	if PlatformTaurus.String() != "taurus" || PlatformKind("abacus").String() != "abacus" {
		t.Fatal("platform stringer")
	}
	if _, err := PlatformFor("abacus"); err == nil {
		t.Fatal("unregistered kind must fail")
	}
	if p, err := PlatformFor("fpga"); err != nil || p.Constraints.Resources.MaxPowerW != 0 {
		t.Fatalf("fpga power cap must default to unbounded (0): %+v, %v", p, err)
	}
}

func TestConstrainOverrides(t *testing.T) {
	p := Taurus()
	p.Constrain(Constraints{
		Performance: Performance{ThroughputGPkts: 0.5},
		Resources:   Resources{Rows: 8},
	})
	if p.Constraints.Performance.ThroughputGPkts != 0.5 {
		t.Fatal("throughput override lost")
	}
	if p.Constraints.Resources.Rows != 8 {
		t.Fatal("rows override lost")
	}
	// untouched fields keep defaults
	if p.Constraints.Performance.LatencyNS != 500 || p.Constraints.Resources.Cols != 16 {
		t.Fatal("defaults must persist")
	}
}

func TestPlatformValidate(t *testing.T) {
	p := Taurus()
	if p.Validate() == nil {
		t.Fatal("platform without schedule must fail")
	}
	p.Schedule(mkModel("a"))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	var nilPlat *Platform
	if nilPlat.Validate() == nil {
		t.Fatal("nil platform must fail")
	}
}

func TestScheduleComposite(t *testing.T) {
	p := Taurus()
	p.Schedule(Seq(mkModel("a"), mkModel("b")))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Sched.Models()) != 2 {
		t.Fatal("composite schedule lost models")
	}
}
