// Package backend defines the stable interface between the Homunculus
// optimization core and the data-plane platforms it compiles for, plus a
// registry of backend factories. The core's claim (§3.2) is that one
// optimization loop serves many targets; this package is the inversion
// that makes it true in the code: the core depends only on Target and
// Verdict, every platform (Taurus CGRA, MAT switches, the FPGA testbed)
// lives behind a factory keyed by its platform kind, and new backends
// plug in with one Register call — no edits to the core, the DSL, or the
// CLI (see docs/architecture.md for the how-to).
package backend

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/ir"
)

// Verdict is the backend-neutral feasibility report the optimization core
// consumes for a candidate model (§3.3 "the testing infrastructure is
// responsible for computing throughput and latency as well as identifying
// whether the application can be mapped within the available resources").
type Verdict struct {
	Feasible bool   `json:"feasible"`
	Reason   string `json:"reason,omitempty"`
	// Metrics carries backend-specific measurements (CUs, MUs, tables,
	// LUT%, latency_ns, throughput_gpkts, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Target is a deployable backend: it estimates resources/performance for
// a model and generates its data-plane code. Implementations: Taurus
// (Spatial), MAT switches (P4 via IIsy), and the FPGA testbed.
type Target interface {
	// Name identifies the backend in reports.
	Name() string
	// Estimate maps the model and returns the feasibility verdict.
	Estimate(m *ir.Model) (Verdict, error)
	// Generate emits the platform code for a (feasible) model.
	Generate(m *ir.Model) (string, error)
	// Supports reports whether the backend can execute the algorithm
	// family at all — the §3.2.1 pre-pruning ("the core tries to rule out
	// as many algorithms as possible based on the data-plane platform").
	Supports(kind ir.Kind) bool
	// ResourceKey names the binding resource metric in Estimate verdicts
	// ("cus", "tables", "lut_pct") — the axis Pareto searches minimize.
	ResourceKey() string
}

// Composer is the optional whole-pipeline capability: backends that can
// host several scheduled models at once (§3.1.1 composition) estimate the
// combined deployment here. Targets without it simply never receive
// multi-model schedules' pipeline verdicts.
type Composer interface {
	// EstimateComposition maps the composed models (schedule order) with
	// the given longest sequential chain depth.
	EstimateComposition(models []*ir.Model, chainDepth int) (Verdict, error)
}

// Performance holds the network constraints the operator declares
// ("performance": {"throughput": 1, "latency": 500}).
type Performance struct {
	ThroughputGPkts float64 // minimum, GPkt/s
	LatencyNS       float64 // maximum, nanoseconds
}

// Resources holds the platform resource declaration. Fields apply per
// platform: Rows/Cols for Taurus grids, Tables for MAT switches,
// MaxLUTPct/MaxPowerW for FPGAs. Zero values select platform defaults.
type Resources struct {
	Rows, Cols int     // Taurus CGRA grid
	Tables     int     // MAT table budget
	MaxLUTPct  float64 // FPGA utilization cap
	MaxPowerW  float64 // FPGA power cap (zero means unbounded)
}

// Constraints pairs performance and resource declarations (the < operator
// of Table 1: Platforms < (performance, resources)).
type Constraints struct {
	Performance Performance
	Resources   Resources
}

// Spec is the backend-neutral build request a factory consumes: which
// platform kind, under which declared constraints. Zero-valued constraint
// fields take the backend's registered defaults.
type Spec struct {
	Kind        string
	Constraints Constraints
}

// Factory builds a configured target from a constraints spec.
type Factory func(Spec) (Target, error)

// Registration describes one platform kind.
type Registration struct {
	// Kind is the registry key — the platform name the DSL and specs use
	// ("taurus", "tofino", "fpga").
	Kind string
	// Factory builds the target.
	Factory Factory
	// Defaults are the constraints a bare platform declaration starts
	// from (the evaluation's per-platform setup).
	Defaults Constraints
	// CodeExt is the file extension of the emitted source (".spatial",
	// ".p4") — what the CLI names Generate's artifact.
	CodeExt string
}

var (
	regMu    sync.RWMutex
	registry = map[string]Registration{}
)

// Register installs a backend under its platform kind. Registering the
// same kind twice panics: backends self-register from init and a
// collision is a programming error.
func Register(r Registration) {
	if r.Kind == "" || r.Factory == nil {
		panic("backend: Register needs a kind and a factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[r.Kind]; dup {
		panic(fmt.Sprintf("backend: duplicate registration for kind %q", r.Kind))
	}
	registry[r.Kind] = r
}

// Registered reports whether a platform kind has a backend.
func Registered(kind string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := registry[kind]
	return ok
}

// Names returns the registered platform kinds, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for k := range registry {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// CodeExt returns the registered source-file extension for a kind;
// unregistered kinds (or registrations without one) fall back to ".txt".
func CodeExt(kind string) string {
	regMu.RLock()
	defer regMu.RUnlock()
	if r, ok := registry[kind]; ok && r.CodeExt != "" {
		return r.CodeExt
	}
	return ".txt"
}

// Defaults returns the registered default constraints for a kind.
func Defaults(kind string) (Constraints, error) {
	regMu.RLock()
	r, ok := registry[kind]
	regMu.RUnlock()
	if !ok {
		return Constraints{}, unknownKind(kind)
	}
	return r.Defaults, nil
}

// Build constructs the target for spec.Kind through the registry.
func Build(spec Spec) (Target, error) {
	regMu.RLock()
	r, ok := registry[spec.Kind]
	regMu.RUnlock()
	if !ok {
		return nil, unknownKind(spec.Kind)
	}
	t, err := r.Factory(spec)
	if err != nil {
		return nil, fmt.Errorf("backend: build %s: %w", spec.Kind, err)
	}
	return t, nil
}

// unknownKind is the shared "no such backend" error; it always lists what
// IS registered so a typo in a spec file is a one-glance fix.
func unknownKind(kind string) error {
	return fmt.Errorf("backend: unknown platform kind %q (registered: %v)", kind, Names())
}
