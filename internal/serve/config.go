package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/parallel"
)

// ConfigVersion is the current ServingConfig schema version. Version 0
// in a parsed document means "unversioned" and is accepted as an alias
// for version 1; canonical output always stamps the current version.
const ConfigVersion = 1

// ServingConfig is the canonical, versioned description of a serving
// runtime's knobs, and their only declaration: the Go API's
// EndpointOptions and RolloutOptions carry it, the wire JSON and the CLI
// flags build it, the tuner emits it, the manifest persists it,
// `PUT /v1/endpoints/{name}/config` applies it, and New builds a runtime
// from it. It round-trips through JSON byte-identically. Every way in
// runs Validate; Resolved is the one place defaults are filled and Flush
// the one place the flush policy is derived.
//
// The zero value means "current defaults" for every field. MaxDelayNS is
// a pointer so that an explicit zero (greedy flush) is representable and
// survives rollout inheritance (see Inherit).
type ServingConfig struct {
	// Version is the schema version (0 or ConfigVersion). Canonical
	// marshalling always emits ConfigVersion.
	Version int `json:"version"`
	// Shards is the number of independent serving rings
	// (0 = GOMAXPROCS, capped at 8).
	Shards int `json:"shards,omitempty"`
	// BatchSize bounds one harvest sweep (0 = 64).
	BatchSize int `json:"batch_size,omitempty"`
	// MaxDelayNS bounds how long a partial batch may be held waiting
	// for more arrivals, in nanoseconds. A positive value holds partial
	// batches up to the bound (fixed policy), or up to the arrival
	// predictor's fill estimate when AdaptiveFlush is on. Zero or
	// negative is always greedy. Absent is greedy, except that
	// AdaptiveFlush then holds up to a 500µs bound.
	MaxDelayNS *int64 `json:"max_delay_ns,omitempty"`
	// QueueDepth bounds in-flight requests per runtime (0 = 1024).
	QueueDepth int `json:"queue_depth,omitempty"`
	// RetainRetired caps warm retired revisions per endpoint
	// (0 = default 2, negative = keep all).
	RetainRetired int `json:"retain_retired,omitempty"`
	// AdaptiveFlush enables the per-shard TAGE-flavored inter-arrival
	// predictor: quiet traffic gets greedy flushes, predicted bursts
	// hold for full batches, bounded by the delay. Classification
	// output is bit-identical either way — only the timing policy
	// changes.
	AdaptiveFlush bool `json:"adaptive_flush,omitempty"`
	// ValidateRollouts enables the translation-validation gate on
	// endpoint rollouts. Enforced by the service layer; the serve
	// runtime itself ignores it.
	ValidateRollouts bool `json:"validate_rollouts,omitempty"`
}

// Options is ServingConfig under its former name, kept for callers that
// still spell a default runtime as Options{}.
type Options = ServingConfig

// Accepted ranges, enforced by Validate and listed in its error, and
// the defaults Resolved fills.
const (
	maxConfigShards     = 256
	maxConfigBatch      = 8192
	maxConfigDelay      = 10 * time.Second
	maxConfigQueue      = 1 << 20
	maxConfigRetain     = 1024
	minConfigRetain     = -1
	defaultMaxDelay     = 500 * time.Microsecond
	defaultRetainLimit  = 2
	defaultAbsBatchSize = 64
	defaultQueueDepth   = 1024
)

// ConfigError reports every validation violation in a ServingConfig at
// once, so a 400 response (or CLI error) can list all of them rather
// than the first.
type ConfigError struct {
	Violations []string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("serve: invalid ServingConfig: %s", strings.Join(e.Violations, "; "))
}

// Validate checks every field against its accepted range and returns a
// *ConfigError listing all violations, or nil. The zero value is
// always valid.
func (c ServingConfig) Validate() error {
	var v []string
	if c.Version != 0 && c.Version != ConfigVersion {
		v = append(v, fmt.Sprintf("version: got %d, accepted {0, %d}", c.Version, ConfigVersion))
	}
	if c.Shards < 0 || c.Shards > maxConfigShards {
		v = append(v, fmt.Sprintf("shards: got %d, accepted [0, %d] (0 = GOMAXPROCS)", c.Shards, maxConfigShards))
	}
	if c.BatchSize < 0 || c.BatchSize > maxConfigBatch {
		v = append(v, fmt.Sprintf("batch_size: got %d, accepted [0, %d] (0 = %d)", c.BatchSize, maxConfigBatch, defaultAbsBatchSize))
	}
	if c.MaxDelayNS != nil && *c.MaxDelayNS > int64(maxConfigDelay) {
		v = append(v, fmt.Sprintf("max_delay_ns: got %d, accepted (-inf, %d] (absent = greedy, or a %v bound with adaptive_flush; <=0 = greedy)", *c.MaxDelayNS, int64(maxConfigDelay), defaultMaxDelay))
	}
	if c.QueueDepth < 0 || c.QueueDepth > maxConfigQueue {
		v = append(v, fmt.Sprintf("queue_depth: got %d, accepted [0, %d] (0 = %d)", c.QueueDepth, maxConfigQueue, defaultQueueDepth))
	}
	if c.RetainRetired < minConfigRetain || c.RetainRetired > maxConfigRetain {
		v = append(v, fmt.Sprintf("retain_retired: got %d, accepted [%d, %d] (0 = %d, -1 = keep all)", c.RetainRetired, minConfigRetain, maxConfigRetain, defaultRetainLimit))
	}
	if len(v) > 0 {
		return &ConfigError{Violations: v}
	}
	return nil
}

// Canonical returns the canonical JSON encoding: validated, version
// stamped, fixed field order, no insignificant whitespace.
func (c ServingConfig) Canonical() ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c.Version = ConfigVersion
	return json.Marshal(c)
}

// ParseConfig decodes and validates a ServingConfig document. Unknown
// fields are rejected so a typoed knob fails loudly instead of
// silently keeping its default.
func ParseConfig(data []byte) (ServingConfig, error) {
	var c ServingConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return ServingConfig{}, fmt.Errorf("serve: parse ServingConfig: %w", err)
	}
	if err := c.Validate(); err != nil {
		return ServingConfig{}, err
	}
	return c, nil
}

// Resolved returns the document with every default filled in: the
// bounds a runtime built from it runs with, and what
// `GET /v1/endpoints/{name}/config` reports. It never changes what the
// document does — an absent delay is filled only under AdaptiveFlush,
// where it means the default bound — and applying it twice changes
// nothing more.
func (c ServingConfig) Resolved() ServingConfig {
	c.Version = ConfigVersion
	if c.Shards <= 0 {
		c.Shards = parallel.Workers()
	}
	if c.BatchSize <= 0 {
		c.BatchSize = defaultAbsBatchSize
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = defaultQueueDepth
	}
	if c.RetainRetired == 0 {
		c.RetainRetired = defaultRetainLimit
	}
	if c.MaxDelayNS == nil && c.AdaptiveFlush {
		ns := int64(defaultMaxDelay)
		c.MaxDelayNS = &ns
	}
	return c
}

// FlushPolicy is when a harvester sweeps a partial batch.
type FlushPolicy uint8

const (
	// FlushGreedy sweeps as soon as a slot is published: no request
	// ever waits on a batching deadline.
	FlushGreedy FlushPolicy = iota
	// FlushFixed holds every partial batch up to the bound.
	FlushFixed
	// FlushAdaptive holds a partial batch only when the arrival
	// predictor says it fills within the bound (predict.go).
	FlushAdaptive
)

func (p FlushPolicy) String() string {
	switch p {
	case FlushFixed:
		return "fixed"
	case FlushAdaptive:
		return "adaptive"
	}
	return "greedy"
}

// Flush returns the flush policy the document selects and its hold
// bound (zero for greedy). It is the one definition of the policy: the
// runtime, the tuner's simulator and the CLI all read it.
func (c ServingConfig) Flush() (FlushPolicy, time.Duration) {
	bound := defaultMaxDelay
	if c.MaxDelayNS != nil {
		bound = time.Duration(*c.MaxDelayNS)
	}
	switch {
	case bound <= 0:
		return FlushGreedy, 0
	case c.AdaptiveFlush:
		return FlushAdaptive, bound
	case c.MaxDelayNS != nil:
		return FlushFixed, bound
	}
	return FlushGreedy, 0
}

// Inherit is a rollout's effective document: the override c with each
// zero field taken from the endpoint's document base. The delay is
// presence-aware — an explicit zero (greedy) is kept — and
// AdaptiveFlush inherits only when the delay does, since an explicit
// delay is a complete flush policy. ValidateRollouts is endpoint policy
// and is not inherited.
func (c ServingConfig) Inherit(base ServingConfig) ServingConfig {
	if c.Shards <= 0 {
		c.Shards = base.Shards
	}
	if c.BatchSize <= 0 {
		c.BatchSize = base.BatchSize
	}
	if c.MaxDelayNS == nil {
		c.MaxDelayNS = base.MaxDelayNS
		c.AdaptiveFlush = c.AdaptiveFlush || base.AdaptiveFlush
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = base.QueueDepth
	}
	if c.RetainRetired == 0 {
		c.RetainRetired = base.RetainRetired
	}
	return c
}
