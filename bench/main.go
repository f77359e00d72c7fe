// Command bench is the repository's benchmark: it boots a real durable
// homunculus.Service behind the HTTP API inside its own process and
// drives the compile path and the serve path the way users do, printing
// the end-to-end metrics of BENCHMARK.json (untraced runs) or the
// per-layer ledger (traced runs). See README.md.
//
//	bash bench/run.sh --workload serve_http_single --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// verbose (-v) prints every window of a measured phase.
var verbose bool

// setupRepeats is how many times an untraced run sets the system up; it
// measures on the last one and reports the median set-up time.
const setupRepeats = 5

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (see -list)")
		seed      = flag.Int64("seed", goldenSeed, "seed of every generated input")
		seconds   = flag.Float64("seconds", runSeconds, "length of the measured phase")
		trace     = flag.Int("trace", 0, "1: traced run, prints the per-layer ledger and writes bench/out/trace-<workload>.json")
		all       = flag.Bool("all", false, "run every workload in turn")
		list      = flag.Bool("list", false, "list the workloads and why each exists")
		selfcheck = flag.Bool("selfcheck", false, "run the workload twice and fail if an end-to-end metric differs by more than its bound")
		golden    = flag.Bool("update-golden", false, "rewrite bench/golden/<workload>-seed1.json from this run")
		printMf   = flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it")
	)
	flag.BoolVar(&verbose, "v", false, "print every window of the measured phase")
	flag.Parse()
	switch {
	case *printMf:
		os.Stdout.Write(manifest())
		return
	case *list:
		for _, d := range workloadDefs {
			fmt.Printf("%-18s clients=%d  %s\n", d.name, d.clients, d.why)
		}
		return
	}
	var defs []workloadDef
	if *all {
		defs = workloadDefs
	} else if d, ok := findWorkload(*workload); ok {
		defs = []workloadDef{d}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (see -list)\n", *workload)
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))
	for _, def := range defs {
		var err error
		switch {
		case *selfcheck:
			err = runSelfcheck(def, *seed, d)
		case *trace != 0:
			_, err = runTraced(def, *seed, d)
		default:
			_, err = runUntraced(def, *seed, d, setupRepeats, *golden)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", def.name, err)
			os.Exit(1)
		}
	}
}

// emit prints the result as the run's last line.
func emit(res result) {
	raw, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(raw))
}

// header prints what every result records about its run.
func header(def workloadDef, seed int64, d time.Duration, traced bool, inputs string) {
	env, _ := json.Marshal(environment())
	fmt.Printf("workload %s seed %d seconds %.3g traced %v clients %d inputs %s env %s\n",
		def.name, seed, d.Seconds(), traced, def.clients, inputs, env)
}

// runUntraced is an end-to-end run: set up repeats times, measure
// one closed-loop phase on the last set-up, check the outputs, print
// every end-to-end metric.
func runUntraced(def workloadDef, seed int64, d time.Duration, repeats int, updateGolden bool) (result, error) {
	var w workloadRun
	var setups []float64
	for rep := 0; rep < repeats; rep++ {
		if w != nil {
			if err := w.teardown(); err != nil {
				return result{}, fmt.Errorf("teardown: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		if w, err = def.make(seed); err != nil {
			return result{}, fmt.Errorf("generate inputs: %w", err)
		}
		if err := w.setup(); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	header(def, seed, d, false, w.inputHash())
	ph := w.run(d, nil)
	gold := w.golden()
	quality := w.quality()
	if err := w.teardown(); err != nil {
		return result{}, fmt.Errorf("teardown: %w", err)
	}
	if ph.attempted == 0 {
		return result{}, errors.New("the measured phase completed no operation")
	}

	ws := windowsOf(ph, def.tailPct)
	if len(ws) == 0 {
		return result{}, errors.New("the measured phase completed no window")
	}
	best, mid := reduce(w, ph, ws, def.tailPct), medianWindow(ws)
	calls := float64(def.callsPerOp)
	perCallUnits := float64(max(def.vectorsPerCall, 1))
	res := result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metricValue{}}
	values := map[string]float64{
		"setup_s":          median(setups),
		"op_p50_us":        best.p50 / calls,
		"op_tail_us":       best.tail / calls,
		"throughput_per_s": best.opsPerS * calls * perCallUnits,
		"cpu_ms_per_op":    best.cpuMS / calls,
		"peak_rss_mb":      peakRSSMB(),
		"model_quality":    quality,
	}
	for _, m := range e2eMetrics {
		res.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}

	fmt.Printf("phase wall %.3f s, %d ops (%d failed) in %d windows; tail = p%g; set-ups %.3f s\n",
		ph.wall.Seconds(), ph.attempted, ph.failed, len(ws), def.tailPct, setups)
	fmt.Printf("median window (the best window is reported): op_p50_us %.3f op_tail_us %.3f throughput_per_s %.3f cpu_ms_per_op %.5f\n",
		mid.p50/calls, mid.tail/calls, mid.opsPerS*calls*perCallUnits, mid.cpuMS/calls)
	if verbose {
		for i, w := range ws {
			fmt.Printf("  window %2d: %6d ops p50 %10.3f tail %10.3f ops/s %12.3f cpu_ms %8.5f\n", i, w.ops, w.p50, w.tail, w.opsPerS, w.cpuMS)
		}
	}
	if seed == goldenSeed {
		if updateGolden {
			if err := writeGolden(def.name, gold); err != nil {
				return result{}, err
			}
		}
		fmt.Printf("golden_changed %v\n", goldenChanged(def.name, gold))
	}
	for _, m := range e2eMetrics {
		fmt.Printf("  %-18s %16.4f %s\n", m.Name, values[m.Name], m.Unit)
	}
	emit(res)
	return res, nil
}

// reduce turns a phase into its reported numbers: each from the window
// where it read best, and the latencies and the rate shape by shape where
// the workload's ops differ in kind.
func reduce(w workloadRun, ph phase, ws []windowStats, tailPct float64) reduced {
	best := bestWindow(ws)
	if g, ok := w.(interface{ groupOf(i int) int }); ok {
		best.p50, best.tail, best.opsPerS = bestByGroup(ph.samples, g.groupOf, tailPct)
	}
	return best
}

// runTraced is the per-layer run: one set-up, an untraced and a traced
// stretch of the same closed loop (their difference is the tracing
// overhead), then the workload's ledger. End-to-end metrics are never
// taken from it.
func runTraced(def workloadDef, seed int64, d time.Duration) (result, error) {
	w, err := def.make(seed)
	if err != nil {
		return result{}, fmt.Errorf("generate inputs: %w", err)
	}
	if err := w.setup(); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	header(def, seed, d, true, w.inputHash())
	plain := w.run(d/4, nil)
	if plain.attempted == 0 {
		_ = w.teardown()
		return result{}, errors.New("the untraced phase completed no operation")
	}
	p50US := func(ph phase) float64 {
		return reduce(w, ph, windowsOf(ph, def.tailPct), def.tailPct).p50 / float64(def.callsPerOp)
	}
	plainUS := p50US(plain)
	tr := newTracer()
	before := httpRequests.Load()
	traced := w.run(d/4, tr)
	requests := httpRequests.Load() - before
	if traced.attempted == 0 {
		_ = w.teardown()
		return result{}, errors.New("the traced phase completed no operation")
	}
	tracedUS := p50US(traced)

	// A quarter of the run for each loop leaves half for the ledger's
	// direct calls, of which no workload has more than forty.
	lg := newLedger(def.name, tr, d/80)
	w.ledger(lg)
	if err := w.teardown(); err != nil {
		return result{}, fmt.Errorf("teardown: %w", err)
	}

	calls := float64(traced.attempted) * float64(def.callsPerOp)
	lg.set("http.requests", float64(requests))
	lg.set("proc.allocs_per_op", float64(traced.mem.allocs)/calls)
	lg.set("proc.bytes_per_op", float64(traced.mem.bytes)/calls)
	lg.set("proc.gc_cycles", float64(traced.mem.gcCycles))
	lg.setDur("proc.gc_pause_ms", traced.mem.gcPause)
	lg.set("trace.overhead_pct", 100*(tracedUS-plainUS)/plainUS)

	path, err := tr.write(filepath.Join(rootDir(), "bench", "out"), def.name)
	if err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("untraced %d ops in %.3f s, traced %d ops in %.3f s, %d spans -> %s\n",
		plain.attempted, plain.wall.Seconds(), traced.attempted, traced.wall.Seconds(), len(tr.spans), path)
	lg.print(os.Stdout, plainUS)
	if miss := lg.missing(); len(miss) > 0 {
		return result{}, fmt.Errorf("ledger left on-path metrics unmeasured: %v", miss)
	}
	failed := plain.failed + traced.failed
	res := result{Correct: failed == 0, Attempted: plain.attempted + traced.attempted, Failed: failed, Metrics: lg.values()}
	emit(res)
	return res, nil
}

// runSelfcheck runs the workload twice, untraced, and compares every
// end-to-end metric against its bound (the table's, which the tests hold
// equal to BENCHMARK.json's).
func runSelfcheck(def workloadDef, seed int64, d time.Duration) error {
	// Each run is a fresh process, as the driver's are: a second run in
	// this process would find it warm and set up a third faster.
	run := func() (result, error) {
		cmd := exec.Command(os.Args[0], "-workload", def.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(d.Seconds()))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		if err != nil {
			return result{}, err
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
		var res result
		return res, json.Unmarshal(lines[len(lines)-1], &res)
	}
	a, err := run()
	if err != nil {
		return err
	}
	b, err := run()
	if err != nil {
		return err
	}
	var bad []string
	for _, m := range e2eMetrics {
		va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
		// Either run may be the worse one, so the difference is taken as
		// a share of the better value whichever direction is better.
		differ := math.Abs(va-vb) / math.Min(va, vb)
		verdict := "ok"
		if differ > m.Bound {
			verdict = "OUT OF BOUND"
			bad = append(bad, m.Name)
		}
		fmt.Printf("selfcheck %-18s %14.4f vs %14.4f  differ %5.1f%% (bound %.0f%%) %s\n", m.Name, va, vb, 100*differ, 100*m.Bound, verdict)
	}
	if !a.Correct || !b.Correct {
		return errors.New("selfcheck: a run had failed operations")
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: %v differ by more than their bound between two runs of the same commit", bad)
	}
	return nil
}
