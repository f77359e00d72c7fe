package homunculus

// Content-addressed result cache with single-flight coalescing.
//
// A compilation is a pure function of its spec — platform kind +
// constraints + schedule + per-model declarations + dataset contents +
// search configuration + seed (fixed-seed output is byte-identical at
// any pool size; see pipeline_test.go) — so a service can answer an
// identical submission with the prior *Pipeline instead of re-searching.
// SpecHash canonicalizes that tuple; the flightCache maps hashes to
// completed pipelines and, crucially, to *in-flight* compilations: N
// concurrent identical submissions elect one leader that compiles while
// the rest park on its completion (single-flight), so the expensive
// search runs exactly once.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"repro/alchemy"
	"repro/internal/bo"
	"repro/internal/core"
)

// specKeyDoc is the canonical form of everything a compilation's result
// depends on. json.Marshal of a struct emits fields in declaration
// order, so the bytes — and the hash — are deterministic.
type specKeyDoc struct {
	Kind        string                  `json:"kind"`
	Constraints alchemy.ConstraintsJSON `json:"constraints"`
	Schedule    *schedKeyNode           `json:"schedule"`
	Search      searchKeyDoc            `json:"search"`
	// Validate distinguishes validated pipelines: the validate stage
	// attaches verdicts to the artifact, so an unvalidated cache entry
	// must not answer a validated submission (omitted when false, so
	// pre-existing hashes are unchanged).
	Validate bool `json:"validate,omitempty"`
}

type schedKeyNode struct {
	Op       string          `json:"op,omitempty"`
	IOMap    string          `json:"iomap,omitempty"`
	Model    *modelKeyDoc    `json:"model,omitempty"`
	Children []*schedKeyNode `json:"children,omitempty"`
}

type modelKeyDoc struct {
	Name       string   `json:"name"`
	Metric     string   `json:"metric"`
	Algorithms []string `json:"algorithms,omitempty"`
	Normalize  bool     `json:"normalize"`
	// Dataset is the loader fingerprint (alchemy.DatasetFingerprint):
	// catalog name when the loader is a named reference, content hash
	// otherwise.
	Dataset string `json:"dataset"`
}

// searchKeyDoc mirrors core.SearchConfig minus its observability-only
// callback (OnCandidate cannot change results, so it must not change the
// key).
type searchKeyDoc struct {
	Algorithms      []string  `json:"algorithms,omitempty"`
	Metric          string    `json:"metric"`
	BO              bo.Config `json:"bo"`
	MaxHiddenLayers int       `json:"max_hidden_layers"`
	MaxNeurons      int       `json:"max_neurons"`
	MaxClusters     int       `json:"max_clusters"`
	TrainEpochs     int       `json:"train_epochs"`
	FormatIntBits   int       `json:"format_int_bits"`
	FormatFracBits  int       `json:"format_frac_bits"`
	Seed            int64     `json:"seed"`
}

// searchDocument renders the effective search configuration — the one
// place the document is populated, for the spec hash and for the wire
// codec (persist.go) alike.
func searchDocument(cfg core.SearchConfig) searchKeyDoc {
	algos := make([]string, 0, len(cfg.Algorithms))
	for _, k := range cfg.Algorithms {
		algos = append(algos, k.String())
	}
	return searchKeyDoc{
		Algorithms:      algos,
		Metric:          string(cfg.Metric),
		BO:              cfg.BO,
		MaxHiddenLayers: cfg.MaxHiddenLayers,
		MaxNeurons:      cfg.MaxNeurons,
		MaxClusters:     cfg.MaxClusters,
		TrainEpochs:     cfg.TrainEpochs,
		FormatIntBits:   cfg.Format.IntBits,
		FormatFracBits:  cfg.Format.FracBits,
		Seed:            cfg.Seed,
	}
}

// SpecHash returns the content address of a submission: a sha256 over
// the canonical form of the declaration and the effective search
// configuration. Equal hashes mean Generate would produce byte-identical
// pipelines. Anonymous data loaders are fingerprinted by content, which
// costs one Load; catalog references (alchemy.NamedLoader) hash by name.
// Result-affecting options (currently WithValidation) participate in the
// hash; observability options do not.
func SpecHash(p *alchemy.Platform, search core.SearchConfig, opts ...Option) (string, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return specHash(p, search, o.validate, nil)
}

// specHash is SpecHash with an optional per-model fingerprint source
// (the Service memoizes fingerprints across submissions through it).
func specHash(p *alchemy.Platform, search core.SearchConfig, validate bool, fingerprint func(*alchemy.Model) (string, error)) (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	if fingerprint == nil {
		fingerprint = func(m *alchemy.Model) (string, error) {
			return alchemy.DatasetFingerprint(m.Spec.DataLoader)
		}
	}
	doc := specKeyDoc{
		Kind:        p.Kind.String(),
		Constraints: alchemy.ConstraintsToJSON(p.Constraints),
		Search:      searchDocument(search),
		Validate:    validate,
	}

	// Fingerprint each unique model once even when scheduled repeatedly
	// (anonymous loaders pay one Load per unique model, not per leaf).
	prints := map[*alchemy.Model]string{}
	var walk func(s *alchemy.Schedule) (*schedKeyNode, error)
	walk = func(s *alchemy.Schedule) (*schedKeyNode, error) {
		if s == nil {
			return nil, nil
		}
		node := &schedKeyNode{}
		if s.Mapper != nil {
			node.IOMap = s.Mapper.Name
		}
		if s.Model != nil {
			m := s.Model
			fp, ok := prints[m]
			if !ok {
				var err error
				fp, err = fingerprint(m)
				if err != nil {
					return nil, fmt.Errorf("homunculus: model %q: %w", m.Spec.Name, err)
				}
				prints[m] = fp
			}
			node.Model = &modelKeyDoc{
				Name:       m.Spec.Name,
				Metric:     m.Spec.OptimizationMetric,
				Algorithms: m.Spec.Algorithms,
				Normalize:  m.Spec.Normalize == nil || *m.Spec.Normalize,
				Dataset:    fp,
			}
			return node, nil
		}
		switch s.Op {
		case alchemy.OpSeq:
			node.Op = "seq"
		case alchemy.OpPar:
			node.Op = "par"
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
		return "", err
	}
	doc.Schedule = sched

	raw, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("homunculus: canonicalize spec: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// flight is one cache slot: an in-flight or completed compilation.
type flight struct {
	// done closes when pipe/err are final.
	done chan struct{}
	pipe *Pipeline
	err  error
}

// flightCache maps spec hashes to flights. Completed successes stay (up
// to cap, oldest evicted first); failures are removed on completion so a
// later identical submission retries instead of replaying the error.
type flightCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*flight
	order   []string // completed successes, oldest first
}

func newFlightCache(cap int) *flightCache {
	return &flightCache{cap: cap, entries: map[string]*flight{}}
}

// acquire returns the flight for key and whether the caller is its
// leader (the one that must compile and complete it). Non-leaders wait
// on flight.done.
func (c *flightCache) acquire(key string) (f *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.entries[key]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	c.entries[key] = f
	return f, true
}

// complete finalizes a leader's flight and wakes every waiter.
func (c *flightCache) complete(key string, f *flight, pipe *Pipeline, err error) {
	c.mu.Lock()
	f.pipe, f.err = pipe, err
	if err != nil {
		// Never cache failures: cancellation and transient errors must
		// not poison the key. Waiters observe err and re-acquire.
		delete(c.entries, key)
	} else {
		c.order = append(c.order, key)
		for c.cap > 0 && len(c.order) > c.cap {
			evict := c.order[0]
			c.order = c.order[1:]
			delete(c.entries, evict)
		}
	}
	c.mu.Unlock()
	close(f.done)
}

// insert plants an externally produced pipeline as a completed success
// (a peer's result that installArtifact took in: fetched on a local
// miss, or a delegated or stolen job's). A key with any existing entry —
// in flight or completed — is left alone: the local flight owns it.
func (c *flightCache) insert(key string, pipe *Pipeline) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	f := &flight{done: make(chan struct{}), pipe: pipe}
	close(f.done)
	c.entries[key] = f
	c.order = append(c.order, key)
	for c.cap > 0 && len(c.order) > c.cap {
		evict := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, evict)
	}
}

// peek returns the completed success cached under key without waiting on
// in-flight compilations (a peer asking for an artifact must not block
// behind a leader).
func (c *flightCache) peek(key string) (*Pipeline, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	select {
	case <-f.done:
	default:
		return nil, false
	}
	if f.err != nil || f.pipe == nil {
		return nil, false
	}
	return f.pipe, true
}
