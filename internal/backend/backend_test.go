package backend

import (
	"strings"
	"testing"

	"repro/internal/fixed"
	"repro/internal/ir"
	"repro/internal/nn"
	"repro/internal/synth/nslkdd"
)

func testModel(t *testing.T) *ir.Model {
	t.Helper()
	cfg := nslkdd.DefaultConfig()
	cfg.Samples = 400
	train, _, err := nslkdd.TrainTest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nc := nn.Config{
		Inputs: train.Features(), Hidden: []int{8, 4}, Outputs: 2,
		Activation: nn.ReLU, Optimizer: nn.Adam,
		LearnRate: 0.01, BatchSize: 32, Epochs: 2, Seed: 1,
	}
	net, err := nn.New(nc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(train); err != nil {
		t.Fatal(err)
	}
	return ir.FromNN("ad", net, fixed.Q8_8)
}

func TestRegistryHasAllThreeBackends(t *testing.T) {
	names := Names()
	for _, want := range []string{"fpga", "taurus", "tofino"} {
		if !Registered(want) {
			t.Fatalf("kind %q not registered (have %v)", want, names)
		}
	}
	if len(names) < 3 {
		t.Fatalf("registry too small: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}

func TestBuildEachKind(t *testing.T) {
	for _, kind := range Names() {
		target, err := Build(Spec{Kind: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if target.Name() == "" || target.ResourceKey() == "" {
			t.Fatalf("%s: empty identity", kind)
		}
	}
}

func TestBuildUnknownKindListsRegistered(t *testing.T) {
	_, err := Build(Spec{Kind: "abacus"})
	if err == nil {
		t.Fatal("unknown kind must fail")
	}
	for _, name := range []string{"taurus", "tofino", "fpga"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error must list registered backends, got: %v", err)
		}
	}
}

func TestBuildAppliesConstraints(t *testing.T) {
	target, err := Build(Spec{Kind: "taurus", Constraints: Constraints{
		Performance: Performance{ThroughputGPkts: 2, LatencyNS: 250},
		Resources:   Resources{Rows: 8, Cols: 12},
	}})
	if err != nil {
		t.Fatal(err)
	}
	tt := target.(*TaurusTarget)
	if tt.Grid.Rows != 8 || tt.Grid.Cols != 12 {
		t.Fatalf("grid: %+v", tt.Grid)
	}
	if tt.Constraints.ThroughputGPkts != 2 || tt.Constraints.LatencyNS != 250 {
		t.Fatalf("constraints: %+v", tt.Constraints)
	}

	target, err = Build(Spec{Kind: "tofino", Constraints: Constraints{
		Resources: Resources{Tables: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if mt := target.(*MATTarget); mt.Tables != 4 {
		t.Fatalf("tables: %+v", mt)
	}
}

func TestDefaultsPerKind(t *testing.T) {
	d, err := Defaults("taurus")
	if err != nil {
		t.Fatal(err)
	}
	if d.Resources.Rows != 16 || d.Performance.LatencyNS != 500 {
		t.Fatalf("taurus defaults: %+v", d)
	}
	if _, err := Defaults("abacus"); err == nil {
		t.Fatal("unknown kind must fail")
	}
}

// TestFPGAPowerCapSemantics pins the MaxPowerW contract: zero means
// unbounded (no 1e9 sentinel), a positive cap binds, a negative cap is a
// build error.
func TestFPGAPowerCapSemantics(t *testing.T) {
	m := testModel(t)

	unbounded, err := Build(Spec{Kind: "fpga"})
	if err != nil {
		t.Fatal(err)
	}
	if unbounded.(*FPGATarget).MaxPowerW != 0 {
		t.Fatalf("default power cap must be 0 (unbounded), got %v", unbounded.(*FPGATarget).MaxPowerW)
	}
	v, err := unbounded.Estimate(m)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Feasible {
		t.Fatalf("small model must fit an uncapped shell: %v", v.Reason)
	}
	if v.Metrics["power_w"] <= 0 {
		t.Fatal("estimate must report power")
	}

	capped, err := Build(Spec{Kind: "fpga", Constraints: Constraints{
		Resources: Resources{MaxPowerW: v.Metrics["power_w"] / 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cv, err := capped.Estimate(m)
	if err != nil {
		t.Fatal(err)
	}
	if cv.Feasible || cv.Reason == "" {
		t.Fatalf("half-power cap must be infeasible with a reason, got %+v", cv)
	}

	if _, err := Build(Spec{Kind: "fpga", Constraints: Constraints{
		Resources: Resources{MaxPowerW: -1},
	}}); err == nil {
		t.Fatal("negative power cap must error")
	}
	if _, err := Build(Spec{Kind: "fpga", Constraints: Constraints{
		Resources: Resources{MaxLUTPct: -5},
	}}); err == nil {
		t.Fatal("negative LUT cap must error")
	}
}

func TestSupportsMatrix(t *testing.T) {
	taurus, _ := Build(Spec{Kind: "taurus"})
	tofino, _ := Build(Spec{Kind: "tofino"})
	fpga, _ := Build(Spec{Kind: "fpga"})
	for _, k := range []ir.Kind{ir.DNN, ir.SVM, ir.KMeans, ir.DTree} {
		if !taurus.Supports(k) || !fpga.Supports(k) {
			t.Fatalf("taurus/fpga must support %v", k)
		}
	}
	if tofino.Supports(ir.DNN) {
		t.Fatal("MAT must prune DNNs")
	}
	if !tofino.Supports(ir.DTree) {
		t.Fatal("MAT must support trees")
	}
}

func TestTaurusComposerCapability(t *testing.T) {
	target, _ := Build(Spec{Kind: "taurus"})
	comp, ok := target.(Composer)
	if !ok {
		t.Fatal("taurus must compose")
	}
	m := testModel(t)
	v, err := comp.EstimateComposition([]*ir.Model{m, m}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Metrics["models"] != 2 || v.Metrics["chain_depth"] != 2 {
		t.Fatalf("composition metrics: %+v", v.Metrics)
	}
	if _, ok := interface{}(NewMATTarget(0)).(Composer); ok {
		t.Fatal("MAT does not compose whole pipelines")
	}
}
