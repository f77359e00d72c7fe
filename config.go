package homunculus

// The canonical serving-config surface: ServingConfig is the one
// declaration of the serving knobs — what EndpointOptions and
// RolloutOptions carry, the wire JSON and the CLI flags build, the tuner
// emits, the manifest persists, and `PUT /v1/endpoints/{name}/config`
// applies. Every way in validates it before serve.Options are resolved
// from it. See docs/tuning.md.

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

// ServingConfig returns the endpoint's live effective configuration —
// every field resolved, suitable for GET /v1/endpoints/{name}/config
// and as the base document to edit and re-apply.
func (e *Endpoint) ServingConfig() ServingConfig {
	c := serve.ConfigFromOptions(e.ep.Options())
	e.mu.Lock()
	c.ValidateRollouts = e.cfg.ValidateRollouts
	e.mu.Unlock()
	return c
}

// RevisionConfigs returns each revision's requested runtime overrides
// (zero fields inherited the endpoint defaults at rollout time).
func (e *Endpoint) RevisionConfigs() map[int]ServingConfig {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[int]ServingConfig, len(e.meta))
	for id, m := range e.meta {
		out[id] = m.cfg
	}
	return out
}

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
	stable, _, _, _ := e.ep.View()
	e.mu.Lock()
	prev := e.meta[stable]
	e.mu.Unlock()
	rev, err := e.ep.Reconfigure(cfg.Options())
	if err != nil {
		return RevisionInfo{}, fmt.Errorf("homunculus: apply config on %s: %w", e.name, err)
	}
	e.mu.Lock()
	e.meta[rev.ID] = revisionMeta{jobID: prev.jobID, app: prev.app, specHash: prev.specHash, cfg: cfg}
	e.cfg = cfg
	e.mu.Unlock()
	e.svc.persistEndpoints()
	return RevisionInfo{
		ID: rev.ID, JobID: prev.jobID, App: prev.app,
		State: RevisionState(serve.RevStable), Created: rev.Created, Warm: true,
	}, nil
}
