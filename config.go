package homunculus

// The canonical serving-config surface: ServingConfig is the one
// declaration of the serving knobs — what EndpointOptions and
// RolloutOptions carry, the wire JSON and the CLI flags build, the tuner
// emits, the manifest persists, `PUT /v1/endpoints/{name}/config`
// applies, and every serving runtime is built from. Every way in
// validates it. See docs/tuning.md.

import (
	"fmt"

	"repro/internal/serve"
)

// ServingConfig is the canonical, versioned serving configuration
// (see serve.ServingConfig for field semantics and accepted ranges).
// The zero value means current defaults; MaxDelayNS is presence-aware,
// so an explicit zero (greedy flush) survives rollouts.
type ServingConfig = serve.ServingConfig

// ServingConfigError lists every validation violation in a
// ServingConfig (errors.As target).
type ServingConfigError = serve.ConfigError

// ParseServingConfig decodes and validates a canonical config
// document, rejecting unknown fields.
func ParseServingConfig(data []byte) (ServingConfig, error) {
	return serve.ParseConfig(data)
}

// ServingConfig returns the endpoint's document resolved — every
// default filled, the flush policy unchanged — suitable for GET
// /v1/endpoints/{name}/config and as the base document to edit and
// re-apply: applying it back changes nothing.
func (e *Endpoint) ServingConfig() ServingConfig { return e.ep.Config().Resolved() }

// ApplyConfig replaces the endpoint's serving configuration with cfg —
// complete-document semantics: the posted config IS the new config,
// zero fields meaning defaults, not "keep the old value" (GET, edit,
// PUT round-trips losslessly). The change rides the atomic rollout
// path: the stable model is re-served as a fresh revision with the new
// bounds and promoted in one routing-table swap, so the previous
// configuration stays one Rollback away. Fails with a
// *ServingConfigError listing violations, or ErrRolloutActive while a
// canary/shadow rollout is in flight.
func (e *Endpoint) ApplyConfig(cfg ServingConfig) (RevisionInfo, error) {
	if err := cfg.Validate(); err != nil {
		return RevisionInfo{}, err
	}
	rev, err := e.ep.Reconfigure(cfg)
	if err != nil {
		return RevisionInfo{}, fmt.Errorf("homunculus: apply config on %s: %w", e.name, err)
	}
	e.svc.persistEndpoints()
	return e.ep.RevisionInfo(rev), nil
}
