package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"
)

// manifestFile is BENCHMARK.json as checked in.
type manifestFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []e2eMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) (manifestFile, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf manifestFile
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	return mf, raw
}

// TestManifest holds BENCHMARK.json to the metric tables and to the
// limits of the benchmark contract.
func TestManifest(t *testing.T) {
	mf, raw := readManifest(t)
	if !bytes.Equal(raw, manifest()) {
		t.Errorf("BENCHMARK.json differs from the metric tables; regenerate it with: bash bench/run.sh -manifest > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(mf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range mf.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why is %d characters, want one line of at most 200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range mf.EndToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	if n := len(mf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range mf.PerLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
	}
	if mf.RunSeconds < 1 || mf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", mf.RunSeconds)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, want at most 64 KiB", len(raw))
	}
}

// TestScaledDownPass runs every workload untraced and traced for a
// fraction of a second (a compile round at the least) and requires the
// printed metric names to be exactly BENCHMARK.json's, every output to
// be correct, and every on-path layer to have been measured.
func TestScaledDownPass(t *testing.T) {
	mf, _ := readManifest(t)
	var e2e, layers []string
	for _, m := range mf.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range mf.PerLayer {
		layers = append(layers, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layers)
	if len(mf.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(mf.Workloads), len(workloadDefs))
	}
	for i, def := range workloadDefs {
		if mf.Workloads[i].Name != def.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, mf.Workloads[i].Name, def.name)
		}
		t.Run(def.name, func(t *testing.T) {
			res, err := runUntraced(def, 3, 50*time.Millisecond, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			if got := slices.Sorted(maps.Keys(res.Metrics)); !slices.Equal(got, e2e) {
				t.Errorf("untraced metrics %v, want %v", got, e2e)
			}
			for k, v := range res.Metrics {
				if v.Value <= 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive number", k, v.Value)
				}
			}
			res, err = runTraced(def, 3, 200*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced: correct=%v failed=%d", res.Correct, res.Failed)
			}
			if got := slices.Sorted(maps.Keys(res.Metrics)); !slices.Equal(got, layers) {
				t.Errorf("traced metrics %v, want %v", got, layers)
			}
			// The bypass predictions.
			switch def.name {
			case "serve_inproc":
				if v := res.Metrics["http.requests"].Value; v != 0 {
					t.Errorf("serve_inproc issued %v HTTP requests", v)
				}
			case "compile_warm":
				if v := res.Metrics["homunculus.stage_search_ms"].Value; v != 0 {
					t.Errorf("compile_warm spent %v ms searching", v)
				}
			}
		})
	}
}

// TestInputsArePure checks that generated inputs are a function of
// (workload, seed) and of nothing else.
func TestInputsArePure(t *testing.T) {
	for _, def := range workloadDefs {
		hash := func(seed int64) string {
			w, err := def.make(seed)
			if err != nil {
				t.Fatal(err)
			}
			return w.inputHash()
		}
		a, b, c := hash(7), hash(7), hash(8)
		if a != b {
			t.Errorf("%s: seed 7 generated %s then %s", def.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs (%s)", def.name, a)
		}
	}
}

func TestPercentileMedianGeomean(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {75, 8}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(vs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean = %v", got)
	}
}

func TestWindows(t *testing.T) {
	ms := time.Millisecond
	// Two windows of 10 ms: three 2 ms ops in the first, two 4 ms ops in
	// the second, one op after the last mark (in no window).
	ph := phase{
		samples: []sample{{2 * ms, 2 * ms}, {4 * ms, 2 * ms}, {6 * ms, 2 * ms}, {14 * ms, 4 * ms}, {18 * ms, 4 * ms}, {22 * ms, 4 * ms}},
		marks:   []mark{{0, 0}, {10 * ms, 3 * ms}, {20 * ms, 11 * ms}},
		wall:    22 * ms,
	}
	ws := windowsOf(ph, 99)
	if len(ws) != 2 {
		t.Fatalf("%d windows, want 2", len(ws))
	}
	if ws[0].ops != 3 || ws[0].p50 != 2000 || ws[0].opsPerS != 300 || ws[0].cpuMS != 1 {
		t.Errorf("window 0 = %+v", ws[0])
	}
	if ws[1].ops != 2 || ws[1].p50 != 4000 || ws[1].tail != 4000 || ws[1].opsPerS != 200 || ws[1].cpuMS != 4 {
		t.Errorf("window 1 = %+v", ws[1])
	}
	best := bestWindow(ws)
	if best.p50 != 2000 || best.opsPerS != 300 || best.cpuMS != 1 {
		t.Errorf("best = %+v", best)
	}
	if mid := medianWindow(ws); mid.p50 != 3000 {
		t.Errorf("median window = %+v", mid)
	}
	// A phase that crossed no mark is one window.
	if ws := windowsOf(phase{samples: ph.samples[:2], wall: 5 * ms}, 99); len(ws) != 1 || ws[0].ops != 2 {
		t.Errorf("markless phase: %+v", ws)
	}
}

func TestBestByGroup(t *testing.T) {
	us := time.Microsecond
	// Two rounds of three groups; the best of each group is 10, 40, 90.
	samples := []sample{{0, 10 * us}, {0, 50 * us}, {0, 90 * us}, {0, 12 * us}, {0, 40 * us}, {0, 95 * us}}
	typical, tail, perS := bestByGroup(samples, func(i int) int { return i % 3 }, 75)
	if want := math.Cbrt(10 * 40 * 90); math.Abs(typical-want) > 1e-9 {
		t.Errorf("typical = %v, want %v", typical, want)
	}
	if tail != 90 { // p75 of three groups is the third: the tail is the heaviest group alone
		t.Errorf("tail = %v, want 90", tail)
	}
	if want := 3 / 140e-6; math.Abs(perS-want) > 1e-6 { // three ops in 10 + 40 + 90 us
		t.Errorf("ops per second = %v, want %v", perS, want)
	}
	if _, tail, _ = bestByGroup(samples, func(i int) int { return i % 3 }, 50); math.Abs(tail-60) > 1e-9 {
		t.Errorf("tail from p50 = %v, want geomean(40, 90) = 60", tail)
	}
}

func TestCovered(t *testing.T) {
	kids := []span{
		{Start: 10, End: 40},
		{Start: 30, End: 60},  // overlaps the first: parallel work
		{Start: 90, End: 120}, // runs past the parent: clipped
		{Start: 95, End: 98},  // inside the third
	}
	if got := covered(0, 100, kids); got != 60 {
		t.Errorf("covered = %d, want 50 (10..60) + 10 (90..100)", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Errorf("covered by nothing = %d", got)
	}
	// The self time of the parent [0, 100] is what is left.
	if self := 100 - covered(0, 100, kids); self != 40 {
		t.Errorf("self time = %d, want 40", self)
	}
}
