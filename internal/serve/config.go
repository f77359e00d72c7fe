package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// ConfigVersion is the current ServingConfig schema version. Version 0
// in a parsed document means "unversioned" and is accepted as an alias
// for version 1; canonical output always stamps the current version.
const ConfigVersion = 1

// ServingConfig is the canonical, versioned description of a serving
// runtime's knobs, and their only declaration: the Go API's
// EndpointOptions and RolloutOptions carry it, the wire JSON and the CLI
// flags build it, the tuner emits it, the manifest persists it, and
// `PUT /v1/endpoints/{name}/config` applies it. It round-trips through
// JSON byte-identically. Every way in runs Validate before Options()
// resolves the bounds a runtime is built from.
//
// The zero value means "current defaults" for every field: Options()
// on a zero ServingConfig yields the same resolved runtime bounds as a
// zero Options. MaxDelayNS is a pointer so that an explicit zero
// (greedy flush) is representable and survives rollout inheritance
// (see Endpoint.resolveOpts).
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
	// for more arrivals, in nanoseconds. nil = default (500µs bound,
	// greedy flush policy); explicit 0 or negative = always greedy.
	// Setting a positive value enables deadline batching: the
	// harvester holds partial batches up to the bound (fixed policy),
	// or up to the arrival predictor's fill estimate when
	// AdaptiveFlush is on.
	MaxDelayNS *int64 `json:"max_delay_ns,omitempty"`
	// QueueDepth bounds in-flight requests per runtime (0 = 1024).
	QueueDepth int `json:"queue_depth,omitempty"`
	// RetainRetired caps warm retired revisions per endpoint
	// (0 = default 2, negative = keep all).
	RetainRetired int `json:"retain_retired,omitempty"`
	// AdaptiveFlush enables the per-shard TAGE-flavored inter-arrival
	// predictor: quiet traffic gets greedy flushes, predicted bursts
	// hold for full batches, bounded by the resolved MaxDelay.
	// Classification output is bit-identical either way — only the
	// timing policy changes.
	AdaptiveFlush bool `json:"adaptive_flush,omitempty"`
	// ValidateRollouts enables the translation-validation gate on
	// endpoint rollouts. Enforced by the service layer; the serve
	// runtime itself ignores it.
	ValidateRollouts bool `json:"validate_rollouts,omitempty"`
}

// Accepted ranges, enforced by Validate and listed in its error.
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
		v = append(v, fmt.Sprintf("max_delay_ns: got %d, accepted (-inf, %d] (absent = default %v, <=0 = greedy)", *c.MaxDelayNS, int64(maxConfigDelay), defaultMaxDelay))
	}
	if c.QueueDepth < 0 || c.QueueDepth > maxConfigQueue {
		v = append(v, fmt.Sprintf("queue_depth: got %d, accepted [0, %d] (0 = 1024)", c.QueueDepth, maxConfigQueue))
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
// stamped, fixed field order, no insignificant whitespace. Two configs
// with the same resolved meaning marshal to the same bytes.
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

// Options converts the canonical config into runtime Options,
// preserving MaxDelay presence.
func (c ServingConfig) Options() Options {
	o := Options{
		Shards:        c.Shards,
		BatchSize:     c.BatchSize,
		QueueDepth:    c.QueueDepth,
		RetainRetired: c.RetainRetired,
		AdaptiveFlush: c.AdaptiveFlush,
	}
	if c.MaxDelayNS != nil {
		o.MaxDelay = time.Duration(*c.MaxDelayNS)
		o.MaxDelaySet = true
	}
	return o
}

// ConfigFromOptions is the inverse of ServingConfig.Options: it lifts
// runtime Options back into the canonical form. MaxDelayNS is emitted
// whenever the options carry a meaningful delay (explicitly set, or a
// nonzero resolved value), so a resolved runtime's effective config is
// fully explicit.
func ConfigFromOptions(o Options) ServingConfig {
	c := ServingConfig{
		Version:       ConfigVersion,
		Shards:        o.Shards,
		BatchSize:     o.BatchSize,
		QueueDepth:    o.QueueDepth,
		RetainRetired: o.RetainRetired,
		AdaptiveFlush: o.AdaptiveFlush,
	}
	if o.MaxDelaySet || o.MaxDelay != 0 {
		ns := int64(o.MaxDelay)
		c.MaxDelayNS = &ns
	}
	return c
}

// Resolved returns the effective config after default resolution: the
// bounds a runtime built from this config actually runs with
// (RetainRetired resolution is endpoint policy and passes through).
func (c ServingConfig) Resolved() ServingConfig {
	o := c.Options().withDefaults()
	r := ConfigFromOptions(o)
	r.RetainRetired = c.RetainRetired
	r.ValidateRollouts = c.ValidateRollouts
	return r
}
