package alchemy

// Canonical JSON serialization for Platform / Model / Schedule, plus the
// DataLoader catalog that makes model declarations wire-transportable.
//
// A DataLoader is arbitrary user code, so a declaration that should cross
// a process boundary (the homunculusd HTTP API) or act as a cache key
// must name its dataset instead of embedding it: RegisterLoader installs
// a loader in the process-wide catalog, and NamedLoader(name) is the
// reference the wire format carries. MarshalPlatform renders a declared
// platform — kind, constraints, schedule tree, model specs, dataset
// names — as canonical JSON (stable field order, deterministic bytes);
// UnmarshalPlatform rebuilds it, resolving dataset names through the
// catalog and preserving repeated-model identity (two schedule leaves
// naming the same model become the same *Model, so the compiler's
// load/search memoization still applies).
//
// DatasetFingerprint supplies the cache-keying half: a stable string
// identifying a loader's data — its catalog name when it has one, a
// sha256 over the materialized samples otherwise.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
)

// --- DataLoader catalog ---

var (
	catMu   sync.RWMutex
	catalog = map[string]DataLoader{}
)

// RegisterLoader installs a loader in the process-wide catalog under
// name. Registering the same name twice panics: loaders self-register at
// startup and a collision is a programming error (mirrors
// backend.Register).
func RegisterLoader(name string, l DataLoader) {
	if name == "" || l == nil {
		panic("alchemy: RegisterLoader needs a name and a loader")
	}
	catMu.Lock()
	defer catMu.Unlock()
	if _, dup := catalog[name]; dup {
		panic(fmt.Sprintf("alchemy: duplicate loader registration for %q", name))
	}
	catalog[name] = l
}

// LoaderRegistered reports whether name is in the catalog.
func LoaderRegistered(name string) bool {
	catMu.RLock()
	defer catMu.RUnlock()
	_, ok := catalog[name]
	return ok
}

// LoaderNames returns the registered dataset names, sorted.
func LoaderNames() []string {
	catMu.RLock()
	defer catMu.RUnlock()
	names := make([]string, 0, len(catalog))
	for n := range catalog {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LoaderFor resolves a catalog name; an unknown name's error lists every
// registered dataset so a typo in a request is a one-glance fix.
func LoaderFor(name string) (DataLoader, error) {
	catMu.RLock()
	l, ok := catalog[name]
	catMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("alchemy: unknown dataset %q (registered: %v)", name, LoaderNames())
	}
	return l, nil
}

// NamedDataLoader is the optional capability a loader exposes when it is
// a catalog reference: its name is what serialization writes in place of
// the loader itself.
type NamedDataLoader interface {
	DataLoader
	LoaderName() string
}

// Fingerprinter is the optional capability of loaders that can identify
// their data without materializing it; DatasetFingerprint uses it to
// avoid loading, and content-addressed caches key on the result.
type Fingerprinter interface {
	DataFingerprint() (string, error)
}

// namedLoader resolves through the catalog at Load time, so a reference
// can be declared (and serialized) before its dataset is registered.
type namedLoader struct{ name string }

// NamedLoader returns a catalog reference: a DataLoader that resolves
// name through the registered catalog at Load time. It implements
// NamedDataLoader and Fingerprinter.
func NamedLoader(name string) DataLoader { return namedLoader{name: name} }

func (n namedLoader) Load() (*Data, error) {
	l, err := LoaderFor(n.name)
	if err != nil {
		return nil, err
	}
	return l.Load()
}

func (n namedLoader) LoaderName() string { return n.name }

func (n namedLoader) DataFingerprint() (string, error) { return "catalog:" + n.name, nil }

// DatasetFingerprint returns a stable identifier for the loader's data:
// the loader's own fingerprint when it implements Fingerprinter, its
// catalog name when it is a NamedDataLoader, and otherwise a sha256 over
// the materialized samples (which costs one Load — callers that need the
// data anyway should Load once and call DataFingerprint themselves).
func DatasetFingerprint(l DataLoader) (string, error) {
	if l == nil {
		return "", fmt.Errorf("alchemy: nil data loader")
	}
	if f, ok := l.(Fingerprinter); ok {
		return f.DataFingerprint()
	}
	if n, ok := l.(NamedDataLoader); ok {
		return "catalog:" + n.LoaderName(), nil
	}
	data, err := l.Load()
	if err != nil {
		return "", fmt.Errorf("alchemy: fingerprint load: %w", err)
	}
	return DataFingerprint(data)
}

// DataFingerprint hashes already-materialized loader output: a sha256
// over feature names, sample matrices, and labels.
func DataFingerprint(data *Data) (string, error) {
	if err := data.Validate(); err != nil {
		return "", err
	}
	h := sha256.New()
	var buf [8]byte
	writeF := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	writeI := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	for _, name := range data.FeatureNames {
		h.Write([]byte(name))
		h.Write([]byte{0})
	}
	for _, split := range [][][]float64{data.TrainX, data.TestX} {
		writeI(len(split))
		for _, row := range split {
			for _, v := range row {
				writeF(v)
			}
		}
	}
	for _, labels := range [][]int{data.TrainY, data.TestY} {
		for _, y := range labels {
			writeI(y)
		}
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// --- wire format ---

// PlatformJSON is the wire rendering of a declared platform. Field order
// is fixed, so json.Marshal of this tree is canonical: equal
// declarations produce equal bytes.
type PlatformJSON struct {
	Kind        string          `json:"kind"`
	Constraints ConstraintsJSON `json:"constraints"`
	Schedule    *ScheduleJSON   `json:"schedule,omitempty"`
}

// ConstraintsJSON flattens Constraints the way the CLI spec format does.
type ConstraintsJSON struct {
	ThroughputGPkts float64 `json:"throughput_gpkts,omitempty"`
	LatencyNS       float64 `json:"latency_ns,omitempty"`
	Rows            int     `json:"rows,omitempty"`
	Cols            int     `json:"cols,omitempty"`
	Tables          int     `json:"tables,omitempty"`
	MaxLUTPct       float64 `json:"max_lut_pct,omitempty"`
	MaxPowerW       float64 `json:"max_power_w,omitempty"`
}

// Constraints converts the wire form back to the DSL type.
func (c ConstraintsJSON) Constraints() Constraints {
	return Constraints{
		Performance: Performance{ThroughputGPkts: c.ThroughputGPkts, LatencyNS: c.LatencyNS},
		Resources: Resources{
			Rows: c.Rows, Cols: c.Cols, Tables: c.Tables,
			MaxLUTPct: c.MaxLUTPct, MaxPowerW: c.MaxPowerW,
		},
	}
}

// ConstraintsToJSON is the inverse: the DSL type in its flat wire form.
func ConstraintsToJSON(c Constraints) ConstraintsJSON {
	return ConstraintsJSON{
		ThroughputGPkts: c.Performance.ThroughputGPkts,
		LatencyNS:       c.Performance.LatencyNS,
		Rows:            c.Resources.Rows,
		Cols:            c.Resources.Cols,
		Tables:          c.Resources.Tables,
		MaxLUTPct:       c.Resources.MaxLUTPct,
		MaxPowerW:       c.Resources.MaxPowerW,
	}
}

// ScheduleJSON is one schedule-tree node: either a leaf (Model set) or a
// composition ("seq" / "par" over Children).
type ScheduleJSON struct {
	Op       string          `json:"op,omitempty"`
	Model    *ModelJSON      `json:"model,omitempty"`
	Children []*ScheduleJSON `json:"children,omitempty"`
	// IOMap carries the mapping's name only; mapper functions do not
	// serialize, and deserialized nodes get an identity mapping.
	IOMap string `json:"iomap,omitempty"`
}

// ModelJSON is the wire rendering of a ModelSpec: the dataset appears as
// its catalog name.
type ModelJSON struct {
	Name       string   `json:"name"`
	Metric     string   `json:"metric,omitempty"`
	Algorithms []string `json:"algorithms,omitempty"`
	Dataset    string   `json:"dataset"`
	Normalize  *bool    `json:"normalize,omitempty"`
}

// MarshalPlatform renders the declaration as canonical JSON: the bytes of
// its PlatformToJSON document.
func MarshalPlatform(p *Platform) ([]byte, error) {
	doc, err := PlatformToJSON(p)
	if err != nil {
		return nil, err
	}
	return json.Marshal(doc)
}

// PlatformToJSON renders the declaration as its wire document (the
// inverse of PlatformFromJSON). Every scheduled model's loader must be a
// catalog reference (NamedDataLoader — use NamedLoader or register
// loaders with RegisterLoader); arbitrary in-process loaders cannot cross
// the wire. Two distinct models sharing one name is an error, since names
// are the wire's only identity.
func PlatformToJSON(p *Platform) (*PlatformJSON, error) {
	if p == nil {
		return nil, fmt.Errorf("alchemy: nil platform")
	}
	doc := &PlatformJSON{Kind: string(p.Kind), Constraints: ConstraintsToJSON(p.Constraints)}
	byName := map[string]*Model{}
	var walk func(s *Schedule) (*ScheduleJSON, error)
	walk = func(s *Schedule) (*ScheduleJSON, error) {
		if s == nil {
			return nil, nil
		}
		node := &ScheduleJSON{}
		if s.Mapper != nil {
			node.IOMap = s.Mapper.Name
		}
		if s.Op == opLeaf {
			m := s.Model
			if m == nil {
				return nil, fmt.Errorf("alchemy: schedule leaf without a model")
			}
			if prev, seen := byName[m.Spec.Name]; seen && prev != m {
				return nil, fmt.Errorf("alchemy: two distinct models named %q cannot serialize", m.Spec.Name)
			}
			byName[m.Spec.Name] = m
			named, ok := m.Spec.DataLoader.(NamedDataLoader)
			if !ok {
				return nil, fmt.Errorf("alchemy: model %q: data loader is not a catalog reference (use NamedLoader / RegisterLoader)", m.Spec.Name)
			}
			node.Model = &ModelJSON{
				Name:       m.Spec.Name,
				Metric:     m.Spec.OptimizationMetric,
				Algorithms: m.Spec.Algorithms,
				Dataset:    named.LoaderName(),
				Normalize:  m.Spec.Normalize,
			}
			return node, nil
		}
		switch s.Op {
		case OpSeq:
			node.Op = "seq"
		case OpPar:
			node.Op = "par"
		default:
			return nil, fmt.Errorf("alchemy: unknown schedule op %d", s.Op)
		}
		for _, ch := range s.Children {
			c, err := walk(ch)
			if err != nil {
				return nil, err
			}
			node.Children = append(node.Children, c)
		}
		return node, nil
	}
	sched, err := walk(p.Sched)
	if err != nil {
		return nil, err
	}
	doc.Schedule = sched
	return doc, nil
}

// UnmarshalPlatform rebuilds a declaration from its wire form. Dataset
// names become catalog references resolved at Load time (so they need
// not be registered yet); repeated model names map to one shared *Model.
func UnmarshalPlatform(data []byte) (*Platform, error) {
	var doc PlatformJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("alchemy: parse platform: %w", err)
	}
	return PlatformFromJSON(&doc)
}

// PlatformFromJSON converts an already-parsed wire document (e.g. one
// embedded in a larger request) into a Platform.
func PlatformFromJSON(doc *PlatformJSON) (*Platform, error) {
	if doc == nil {
		return nil, fmt.Errorf("alchemy: nil platform document")
	}
	if doc.Kind == "" {
		return nil, fmt.Errorf("alchemy: platform document needs a kind")
	}
	p := &Platform{Kind: PlatformKind(doc.Kind), Constraints: doc.Constraints.Constraints()}
	models := map[string]*Model{}
	seen := map[string]*ModelJSON{}
	var walk func(n *ScheduleJSON) (*Schedule, error)
	walk = func(n *ScheduleJSON) (*Schedule, error) {
		if n == nil {
			return nil, nil
		}
		var s *Schedule
		switch {
		case n.Model != nil:
			mj := n.Model
			if mj.Name == "" {
				return nil, fmt.Errorf("alchemy: model without a name")
			}
			if mj.Dataset == "" {
				return nil, fmt.Errorf("alchemy: model %q needs a dataset name", mj.Name)
			}
			m, ok := models[mj.Name]
			if !ok {
				m = NewModel(ModelSpec{
					Name:               mj.Name,
					OptimizationMetric: mj.Metric,
					Algorithms:         mj.Algorithms,
					DataLoader:         NamedLoader(mj.Dataset),
					Normalize:          mj.Normalize,
				})
				models[mj.Name] = m
				seen[mj.Name] = mj
			} else if !reflect.DeepEqual(seen[mj.Name], mj) {
				// Names are the wire's only model identity: a repeated
				// name with a conflicting spec would silently compile
				// against the first leaf's declaration.
				return nil, fmt.Errorf("alchemy: model %q declared twice with different specs", mj.Name)
			}
			s = m.node()
		case n.Op == "seq" || n.Op == "par":
			op := OpSeq
			if n.Op == "par" {
				op = OpPar
			}
			s = &Schedule{Op: op}
			for _, ch := range n.Children {
				c, err := walk(ch)
				if err != nil {
					return nil, err
				}
				if c == nil {
					return nil, fmt.Errorf("alchemy: nil child in %q composition", n.Op)
				}
				s.Children = append(s.Children, c)
			}
		default:
			return nil, fmt.Errorf("alchemy: schedule node needs a model or op \"seq\"/\"par\", got op %q", n.Op)
		}
		if n.IOMap != "" {
			s.Mapper = &IOMap{Name: n.IOMap}
		}
		return s, nil
	}
	sched, err := walk(doc.Schedule)
	if err != nil {
		return nil, err
	}
	p.Sched = sched
	return p, nil
}
