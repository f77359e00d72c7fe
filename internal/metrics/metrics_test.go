package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfusionBasics(t *testing.T) {
	c := NewConfusion(2)
	// 3 TP, 1 FP, 1 FN, 5 TN for class 1
	for i := 0; i < 3; i++ {
		c.Observe(1, 1)
	}
	c.Observe(0, 1)
	c.Observe(1, 0)
	for i := 0; i < 5; i++ {
		c.Observe(0, 0)
	}
	if c.Total() != 10 {
		t.Fatalf("Total = %d", c.Total())
	}
	if got := c.Accuracy(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("Accuracy = %v", got)
	}
	p, r := c.PrecisionRecall(1)
	if math.Abs(p-0.75) > 1e-12 || math.Abs(r-0.75) > 1e-12 {
		t.Fatalf("P/R = %v/%v", p, r)
	}
	if got := c.F1(1); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("F1 = %v", got)
	}
}

func TestObserveOutOfRangeIgnored(t *testing.T) {
	c := NewConfusion(2)
	c.Observe(-1, 0)
	c.Observe(0, 5)
	if c.Total() != 0 {
		t.Fatal("out-of-range labels must be ignored")
	}
}

func TestEmptyConfusionSafe(t *testing.T) {
	c := NewConfusion(3)
	if c.Accuracy() != 0 || c.MacroF1() != 0 || c.F1(0) != 0 {
		t.Fatal("empty confusion must yield zeros, not NaN")
	}
	p, r := c.PrecisionRecall(5)
	if p != 0 || r != 0 {
		t.Fatal("out-of-range class must yield zeros")
	}
}

func TestMacroF1PerfectPrediction(t *testing.T) {
	actual := []int{0, 1, 2, 0, 1, 2}
	c := FromLabels(actual, actual, 3)
	if got := c.MacroF1(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("MacroF1 perfect = %v", got)
	}
}

func TestNumClasses(t *testing.T) {
	if NumClasses([]int{0, 3}, []int{1}) != 4 {
		t.Fatal("NumClasses wrong")
	}
	if NumClasses(nil) != 1 {
		t.Fatal("NumClasses empty should be 1")
	}
}

func TestVMeasurePerfectClustering(t *testing.T) {
	classes := []int{0, 0, 1, 1, 2, 2}
	clusters := []int{5, 5, 7, 7, 9, 9} // relabeled but identical partition
	if got := VMeasure(classes, clusters); math.Abs(got-1) > 1e-12 {
		t.Fatalf("VMeasure perfect = %v", got)
	}
}

func TestVMeasureSingleCluster(t *testing.T) {
	classes := []int{0, 0, 1, 1}
	clusters := []int{0, 0, 0, 0}
	// Single cluster: completeness 1, homogeneity 0 -> V = 0.
	if got := VMeasure(classes, clusters); got != 0 {
		t.Fatalf("VMeasure single cluster = %v", got)
	}
	if Completeness(classes, clusters) != 1 {
		t.Fatal("completeness must be 1 for one cluster")
	}
	if Homogeneity(classes, clusters) != 0 {
		t.Fatal("homogeneity must be 0 for one mixed cluster")
	}
}

func TestVMeasureDegradesWithMerging(t *testing.T) {
	// Ground truth: 4 classes. Clusters that merge classes should score
	// lower than the perfect clustering.
	n := 400
	rng := rand.New(rand.NewSource(42))
	classes := make([]int, n)
	for i := range classes {
		classes[i] = rng.Intn(4)
	}
	perfect := append([]int{}, classes...)
	merged := make([]int, n)
	for i, c := range classes {
		merged[i] = c / 2 // merge 0&1, 2&3
	}
	vp, vm := VMeasure(classes, perfect), VMeasure(classes, merged)
	if vp <= vm {
		t.Fatalf("perfect (%v) must beat merged (%v)", vp, vm)
	}
}

// TestVMeasureDeterministic: the entropies are sums of floats over maps;
// reduced in map-iteration order they differed in their last bits from
// call to call, and so did every KMeans pipeline's reported metric.
func TestVMeasureDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	classes := make([]int, 500)
	clusters := make([]int, 500)
	for i := range classes {
		classes[i] = rng.Intn(9)
		clusters[i] = rng.Intn(11)
	}
	want := math.Float64bits(VMeasure(classes, clusters))
	for call := 1; call < 200; call++ {
		if got := math.Float64bits(VMeasure(classes, clusters)); got != want {
			t.Fatalf("call %d: VMeasure bits %#x, first call %#x", call, got, want)
		}
	}
}

// Property: V-measure is symmetric under cluster relabeling and bounded
// in [0, 1].
func TestVMeasureQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(50)
		classes := make([]int, n)
		clusters := make([]int, n)
		for i := 0; i < n; i++ {
			classes[i] = rng.Intn(4)
			clusters[i] = rng.Intn(5)
		}
		v := VMeasure(classes, clusters)
		if v < -1e-9 || v > 1+1e-9 || math.IsNaN(v) {
			return false
		}
		// relabel clusters by +10: must not change the score
		relabeled := make([]int, n)
		for i, c := range clusters {
			relabeled[i] = c + 10
		}
		return math.Abs(VMeasure(classes, relabeled)-v) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: accuracy and macro-F1 are 1 when predictions equal labels.
func TestPerfectPredictionQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(3)
		}
		c := FromLabels(labels, labels, 3)
		return math.Abs(c.Accuracy()-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConfusionString(t *testing.T) {
	c := NewConfusion(2)
	c.Observe(0, 1)
	s := c.String()
	if len(s) == 0 {
		t.Fatal("String must render something")
	}
}
