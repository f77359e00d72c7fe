package main

// Translation-validation CLI (docs/validation.md). Three entry points:
//
//	homunculus -validate -spec pipeline.json          compile + validate
//	homunculus -validate -model m.json -code x.p4     check a shipped artifact
//	homunculus -repro divergence.repro.json           replay a saved repro
//
// All three exit nonzero on divergence, after writing (or replaying) a
// minimized repro JSON — the artifact a codegen bug report starts from.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/backend"
	"repro/internal/ir"
	"repro/internal/validate"

	homunculus "repro"
)

// runValidateArtifact differentially checks an emitted artifact file
// against its serialized model: the artifact text is interpreted and
// driven with the product's validation traffic next to the IR reference,
// exactly as the serving gate checks a rollout. The interpreter follows
// the -platform override's code extension when given, else the file's.
// On divergence a minimized repro lands in the output directory and the
// run errors.
func runValidateArtifact(cfg config) error {
	modelPath, codePath := cfg.model, cfg.code
	if modelPath == "" || codePath == "" {
		return fmt.Errorf("artifact validation needs both -model and -code")
	}
	mf, err := os.Open(modelPath)
	if err != nil {
		return fmt.Errorf("open model: %w", err)
	}
	defer mf.Close()
	m, err := ir.ReadJSON(mf)
	if err != nil {
		return fmt.Errorf("read model %s: %w", modelPath, err)
	}
	raw, err := os.ReadFile(codePath)
	if err != nil {
		return fmt.Errorf("read artifact: %w", err)
	}
	ext := filepath.Ext(codePath)
	if cfg.platform != "" {
		if !backend.Registered(cfg.platform) {
			return fmt.Errorf("no artifact interpreter for platform %q (have %s)", cfg.platform, strings.Join(backend.Names(), ", "))
		}
		ext = backend.CodeExt(cfg.platform)
	}
	interp, err := validate.Interpreter(ext, string(raw))
	switch {
	case errors.Is(err, validate.ErrNoInterpreter):
		return fmt.Errorf("cannot infer artifact language from %q; pass -platform", codePath)
	case err != nil:
		return fmt.Errorf("validate: %s: %w", codePath, err)
	}

	evals := []validate.Evaluator{{Name: "ir", Classify: m.InferQ}, interp}
	rep := validate.Check(evals, validate.ProductTraffic(m))
	if len(rep.Divergences) == 0 {
		fmt.Fprintf(cfg.out, "validate: %s is equivalent to %s across %v on %d inputs\n",
			codePath, modelPath, rep.Evaluators, rep.Inputs)
		return nil
	}
	reproPath, werr := writeRepro(cfg.out, m, evals, rep.Divergences[0], cfg.outDir,
		strings.TrimSuffix(filepath.Base(codePath), filepath.Ext(codePath)))
	if werr != nil {
		return fmt.Errorf("divergence found but repro not writable: %w", werr)
	}
	return fmt.Errorf("validate: %s diverges from %s on %d/%d inputs\n  first: %s\n  repro: %s",
		codePath, modelPath, len(rep.Divergences), rep.Inputs, rep.Divergences[0].String(), reproPath)
}

// writeRepro minimizes the first divergence and writes the repro JSON to
// outDir/<name>.repro.json, echoing it to w for bug reports.
func writeRepro(w io.Writer, m *ir.Model, evals []validate.Evaluator, d validate.Divergence, outDir, name string) (string, error) {
	r, err := validate.NewRepro(m, evals, d, "")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, name+".repro.json")
	if err := r.WriteFile(path); err != nil {
		return "", err
	}
	if err := r.Write(w); err != nil {
		return "", err
	}
	return path, nil
}

// runReproReplay re-executes a saved divergence repro against the current
// code generators: still-diverging repros exit nonzero (the bug lives),
// fixed ones report success — the CLI face of the regression corpus.
func runReproReplay(cfg config) error {
	r, err := validate.ReadReproFile(cfg.repro)
	if err != nil {
		return err
	}
	d, reproduced, err := r.Replay()
	if err != nil {
		return fmt.Errorf("replay %s: %w", cfg.repro, err)
	}
	if reproduced {
		return fmt.Errorf("repro %s still diverges: %s", cfg.repro, d.String())
	}
	fmt.Fprintf(cfg.out, "repro %s no longer diverges (fixed)\n", cfg.repro)
	return nil
}

// reportValidation renders an app's validation verdict, compiled here or
// on a daemon; a failed verdict writes its embedded repro next to the
// other artifacts and errors so the CLI exits nonzero.
func reportValidation(w io.Writer, v *homunculus.ValidationReport, outDir, name string) error {
	fmt.Fprintf(w, "  validation: %s\n", v.String())
	if v.OK() {
		return nil
	}
	if len(v.Repro) > 0 {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(outDir, name+".repro.json")
		if err := os.WriteFile(path, append(append([]byte(nil), v.Repro...), '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "  repro:      %s\n", path)
	}
	return fmt.Errorf("translation validation failed: %s", v.String())
}
