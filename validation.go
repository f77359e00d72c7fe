package homunculus

// Translation validation as a pipeline stage (docs/validation.md). When a
// submission opts in with WithValidation, every compiled model's emitted
// artifacts are executed by internal/validate's interpreters against the
// IR's quantized reference inference over fixed-seed traffic, and the
// verdict rides on the job result. Divergence does not fail the
// compilation — the pipeline (with its report) is still useful for
// debugging — but the serving layer refuses to roll out a diverging
// revision when the endpoint opted in (endpoint.go), and the CLI's
// -validate mode exits nonzero.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/backend"
	"repro/internal/ir"
	"repro/internal/validate"
)

// ErrValidationFailed refuses serving an artifact that diverges from its
// model's reference semantics — or that carries a recorded failed
// validation verdict — on an endpoint that opted into ValidateRollouts.
var ErrValidationFailed = errors.New("homunculus: translation validation failed")

// ValidationReport is the per-app translation-validation verdict.
type ValidationReport struct {
	// Evaluators lists what executed the traffic ("ir", "p4", "spatial",
	// "sim" — coverage depends on the model family).
	Evaluators []string `json:"evaluators,omitempty"`
	// Inputs is the traffic size (random vectors + boundary probes).
	Inputs int `json:"inputs"`
	// Divergences counts inputs on which any evaluator disagreed with
	// the IR reference.
	Divergences int `json:"divergences"`
	// Repro is the minimized divergence artifact (validate.Repro JSON)
	// when Divergences > 0; replay it with `homunculus -validate -repro`.
	Repro json.RawMessage `json:"repro,omitempty"`
	// Err records a validation run that could not execute (artifact
	// unparseable, generator error). A non-empty Err is a failed verdict.
	Err string `json:"error,omitempty"`
}

// OK reports whether the artifacts were checked and found equivalent.
func (r *ValidationReport) OK() bool {
	return r != nil && r.Err == "" && r.Divergences == 0
}

// String summarizes the verdict for logs and the CLI.
func (r *ValidationReport) String() string {
	switch {
	case r == nil:
		return "not validated"
	case r.Err != "":
		return fmt.Sprintf("validation error: %s", r.Err)
	case r.Divergences > 0:
		return fmt.Sprintf("DIVERGED on %d/%d inputs across %v", r.Divergences, r.Inputs, r.Evaluators)
	default:
		return fmt.Sprintf("equivalent across %v on %d inputs", r.Evaluators, r.Inputs)
	}
}

// validateModel runs the differential harness over one compiled model's
// regenerated artifacts. An unparseable or ungeneratable artifact is
// reported in Err rather than returned: the stage's contract is to attach
// a verdict, not to abort compilation.
func validateModel(m *ir.Model) *ValidationReport {
	evals, err := validate.Evaluators(m)
	if err != nil {
		return &ValidationReport{Err: err.Error()}
	}
	rep := validate.Check(evals, validate.ProductTraffic(m))
	vr := &ValidationReport{
		Evaluators:  rep.Evaluators,
		Inputs:      rep.Inputs,
		Divergences: len(rep.Divergences),
	}
	if len(rep.Divergences) > 0 {
		if r, rerr := validate.NewRepro(m, evals, rep.Divergences[0], ""); rerr == nil {
			var buf bytes.Buffer
			if werr := r.Write(&buf); werr == nil {
				vr.Repro = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
			}
		}
	}
	return vr
}

// gateRollout is the serving-side translation-validation gate: before a
// revision of a ValidateRollouts endpoint may serve, the artifact text it
// actually ships (AppResult.Code) is interpreted with the platform's
// interpreter and differentially checked against the model's IR reference
// over the fixed validation traffic. This re-checks the shipped bytes —
// not the compile-time verdict — so an artifact corrupted or swapped
// after codegen is refused even when the pipeline's recorded verdict was
// clean. A recorded failed verdict is refused outright; a platform
// without an interpreter (no registered artifact grammar) passes on the
// recorded verdict alone.
func gateRollout(platform string, app *AppResult) error {
	if app.Validation != nil && !app.Validation.OK() {
		return fmt.Errorf("%w: app %q compile-time verdict: %s", ErrValidationFailed, app.Name, app.Validation.String())
	}
	if app.Model == nil {
		return nil
	}
	interp, err := validate.Interpreter(backend.CodeExt(platform), app.Code)
	if errors.Is(err, validate.ErrNoInterpreter) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("%w: app %q: %v", ErrValidationFailed, app.Name, err)
	}
	evals := []validate.Evaluator{{Name: "ir", Classify: app.Model.InferQ}, interp}
	rep := validate.Check(evals, validate.ProductTraffic(app.Model))
	if len(rep.Divergences) > 0 {
		d := rep.Divergences[0]
		return fmt.Errorf("%w: app %q shipped artifact diverges from reference on %d/%d inputs (first: %s)",
			ErrValidationFailed, app.Name, len(rep.Divergences), rep.Inputs, d.String())
	}
	return nil
}
