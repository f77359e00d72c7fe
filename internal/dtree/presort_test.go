package dtree

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// The presorted grower must choose every split, threshold and tie-break
// exactly as the per-node-sorting CART did (reference_test.go), so that
// compiled artifacts do not move. NaN features are left out on purpose:
// they make the reference's sort comparator inconsistent, so its own
// result depends on the sort's internals, and dataset.Validate rejects
// them before any search trains on them. ±Inf is in.

// awkwardDataset draws a training set of the kinds that could tell two
// CART implementations apart: few distinct values (long runs of ties,
// with mixed labels inside a run), constant and duplicated columns,
// adjacent floats (whose midpoint rounds onto one of them), magnitudes
// whose sum overflows, infinities, and labels at or above Classes (which
// both implementations leave out of the counts).
func awkwardDataset(rng *rand.Rand, n, nf, classes int) *dataset.Dataset {
	d := dataset.New(n, nf)
	for f := 0; f < nf; f++ {
		style := rng.Intn(14)
		base := rng.NormFloat64()
		src := rng.Intn(f + 1) // style 10 copies this column (itself, still zero, when f == 0)
		for i := 0; i < n; i++ {
			var v float64
			switch style {
			case 0, 1, 2, 3: // continuous
				v = rng.NormFloat64()
			case 4, 5, 6, 7, 8: // heavy ties
				v = float64(rng.Intn(1 + rng.Intn(4)))
			case 9: // constant
				v = base
			case 10: // duplicate of another column
				v = d.X.At(i, src)
			case 11: // adjacent floats
				v = base
				for k := rng.Intn(3); k > 0; k-- {
					v = math.Nextafter(v, math.Inf(1))
				}
			case 12: // v+next overflows
				v = []float64{math.MaxFloat64, math.MaxFloat64 / 2, -math.MaxFloat64, 1}[rng.Intn(4)]
			default: // infinities among ordinary values
				v = []float64{math.Inf(1), math.Inf(-1), 0, 1, -1}[rng.Intn(5)]
			}
			d.X.Set(i, f, v)
		}
	}
	// Labels follow two of the features (compared with a value the column
	// holds, so the classes are splittable) under noise, and now and then
	// fall outside [0, classes).
	fa, fb := rng.Intn(nf+1), rng.Intn(nf+1)
	pivot := rng.Intn(n)
	for i := range d.Y {
		y := 0
		if fa < nf && d.X.At(i, fa) > d.X.At(pivot, fa) {
			y++
		}
		if fb < nf && d.X.At(i, fb) > d.X.At((pivot+1)%n, fb) {
			y += 2
		}
		switch rng.Intn(12) {
		case 0:
			y = classes + rng.Intn(2)
		case 1, 2:
			y = rng.Intn(classes)
		}
		d.Y[i] = y % (classes + 2)
	}
	return d
}

func requireSameTree(t *testing.T, label string, c Config, d *dataset.Dataset, got *Model) {
	t.Helper()
	want, err := referenceTrain(c, d)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %+v on %d×%d: presorted tree differs from the reference\n got %s\nwant %s",
			label, c, d.Len(), d.Features(), dump(got.Root), dump(want.Root))
	}
}

func dump(n *Node) string {
	if n == nil {
		return "-"
	}
	if n.IsLeaf() {
		return "L" + string(rune('0'+n.Class%10))
	}
	return "(" + dump(n.Left) + " f" + string(rune('0'+n.Feature%10)) + " " + dump(n.Right) + ")"
}

func TestPresortedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	deep := 0
	for round := 0; round < 600; round++ {
		classes := 2 + rng.Intn(3)
		c := Config{MaxDepth: 1 + rng.Intn(8), MinLeaf: 1 + rng.Intn(1+rng.Intn(16)), Classes: classes}
		n := 1 + rng.Intn(200)
		if round%4 == 0 { // sizes around the smallest splittable node
			n = max(1, 2*c.MinLeaf-1+rng.Intn(3))
		}
		nf := 1 + rng.Intn(6)
		if rng.Intn(25) == 0 {
			nf = 0
		}
		d := awkwardDataset(rng, n, nf, classes)
		got, err := Train(c, d)
		if err != nil {
			t.Fatal(err)
		}
		requireSameTree(t, "Train", c, d, got)
		if got.Depth() >= 2 {
			deep++
		}
	}
	if deep < 200 {
		t.Fatalf("only %d of the trees compared had depth >= 2: the generator lost its power", deep)
	}
}

// One Presorted serves any number of Grows, in any order and
// concurrently: growing must not write to it.
func TestPresortedSharedAcrossGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	d := awkwardDataset(rng, 240, 6, 3)
	p := Presort(d)
	var configs []Config
	for depth := 1; depth <= 8; depth++ {
		for _, minLeaf := range []int{1, 3, 16} {
			configs = append(configs, Config{MaxDepth: depth, MinLeaf: minLeaf, Classes: 3})
		}
	}
	models := make([]*Model, len(configs))
	var wg sync.WaitGroup
	for i, c := range configs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			models[i], _ = p.Grow(c)
		}()
	}
	wg.Wait()
	for i, c := range configs {
		if models[i] == nil {
			t.Fatalf("%+v: Grow failed", c)
		}
		requireSameTree(t, "Grow", c, d, models[i])
	}
}

// FuzzDTreePresorted derives a training set and a configuration from the
// fuzzer's bytes: raw supplies feature bit patterns (repeated with a
// position-dependent twist, so ties and near-ties both occur), seed the
// labels and whatever raw does not cover.
func FuzzDTreePresorted(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), uint8(4), uint8(2), []byte{})
	f.Add(int64(2), uint8(8), uint8(1), uint8(8), uint8(4), []byte{0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0x3f, 0xf0, 0, 0, 0, 0, 0, 1})   // 1 and its successor
	f.Add(int64(3), uint8(30), uint8(2), uint8(3), uint8(1), []byte{0x7f, 0xef, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})              // MaxFloat64
	f.Add(int64(4), uint8(25), uint8(4), uint8(6), uint8(16), []byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 0, 0xff, 0xf0, 0, 0, 0, 0, 0, 0}) // ±Inf
	f.Add(int64(5), uint8(200), uint8(0), uint8(5), uint8(1), []byte{0, 0, 0, 0, 0, 0, 0, 1, 0x80, 0, 0, 0, 0, 0, 0, 0})          // no features
	f.Fuzz(func(t *testing.T, seed int64, n, nf, depth, minLeaf uint8, raw []byte) {
		if n == 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		classes := 2 + rng.Intn(3)
		c := Config{MaxDepth: 1 + int(depth%8), MinLeaf: 1 + int(minLeaf%16), Classes: classes}
		d := dataset.New(int(n), int(nf%8))
		k := 0
		for i := range d.X.Data {
			v := float64(rng.Intn(4))
			if len(raw) >= 8 {
				var bits uint64
				for b := 0; b < 8; b++ {
					bits = bits<<8 | uint64(raw[(k+b)%len(raw)])
				}
				k += 8
				v = math.Float64frombits(bits) * float64(1+i%3)
			}
			if math.IsNaN(v) {
				v = 0
			}
			d.X.Data[i] = v
		}
		for i := range d.Y {
			d.Y[i] = rng.Intn(classes + 1)
		}
		got, err := Train(c, d)
		if err != nil {
			t.Fatal(err)
		}
		requireSameTree(t, "Train", c, d, got)
	})
}
