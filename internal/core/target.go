// Package core implements the Homunculus optimization core (§3.2): it
// takes an application (datasets + objective) and a backend target,
// explores the design space of candidate ML algorithms with constrained
// Bayesian optimization, trains candidates, tests feasibility against the
// target's resources and the network performance constraints, and returns
// the best compliant model. It also implements model fusion (§3.2.5).
//
// The core is backend-agnostic by construction: it sees platforms only
// through the internal/backend interfaces below, never through concrete
// Taurus/MAT/FPGA types or their code generators. New backends register
// with internal/backend and work here unchanged.
package core

import "repro/internal/backend"

// Verdict is the backend-neutral feasibility report (see
// backend.Verdict); aliased so the core's API reads in core vocabulary
// without re-wrapping every report.
type Verdict = backend.Verdict

// Target is the deployable-backend interface the core searches against
// (see backend.Target).
type Target = backend.Target
