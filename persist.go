package homunculus

// Serialization: first the pipeline — the canonical JSON document the
// durable artifact store keeps per SpecHash (internal/store,
// docs/operations.md) — then the wire-job codec. The pipeline document
// is deterministic — fixed field order, compacted model
// JSON, map keys sorted by the encoder — so equal pipelines produce
// equal bytes and a recovered cache entry re-serializes bit-identically.
//
// Candidate telemetry (AppResult.Candidates: per-family BO histories) is
// deliberately NOT persisted: it is observability, not a compilation
// result, and it dominates the pipeline's size. A pipeline read back
// from the store has Candidates == nil; everything a deployment or
// endpoint needs — models, verdicts, generated code — survives.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/alchemy"
	"repro/internal/core"
	"repro/internal/fixed"
	"repro/internal/ir"
	"repro/internal/store"
)

// pipelineFormatVersion is bumped on incompatible artifact changes.
const pipelineFormatVersion = 1

type pipelineDoc struct {
	Version     int           `json:"version"`
	Platform    string        `json:"platform"`
	Apps        []appDoc      `json:"apps"`
	Composition *core.Verdict `json:"composition,omitempty"`
}

type appDoc struct {
	Name       string            `json:"name"`
	Algorithm  string            `json:"algorithm,omitempty"`
	Metric     float64           `json:"metric"`
	Model      json.RawMessage   `json:"model,omitempty"`
	Verdict    core.Verdict      `json:"verdict"`
	Code       string            `json:"code,omitempty"`
	Validation *ValidationReport `json:"validation,omitempty"`
}

// MarshalPipeline renders a compiled pipeline as the canonical artifact
// document. Candidate telemetry is dropped (see the package comment
// above); everything else round-trips through UnmarshalPipeline.
func MarshalPipeline(pipe *Pipeline) ([]byte, error) {
	if pipe == nil {
		return nil, fmt.Errorf("homunculus: nil pipeline")
	}
	doc := pipelineDoc{Version: pipelineFormatVersion, Platform: pipe.Platform}
	for i := range pipe.Apps {
		app := &pipe.Apps[i]
		ad := appDoc{
			Name:       app.Name,
			Algorithm:  app.Algorithm,
			Metric:     app.Metric,
			Verdict:    app.Verdict,
			Code:       app.Code,
			Validation: app.Validation,
		}
		if app.Model != nil {
			var buf bytes.Buffer
			if err := app.Model.WriteJSON(&buf); err != nil {
				return nil, fmt.Errorf("homunculus: serialize pipeline app %q: %w", app.Name, err)
			}
			ad.Model = buf.Bytes()
		}
		doc.Apps = append(doc.Apps, ad)
	}
	doc.Composition = pipe.Composition
	return json.Marshal(doc)
}

// UnmarshalPipeline rebuilds a pipeline from its artifact document,
// validating every embedded model. Candidates are nil by design.
func UnmarshalPipeline(raw []byte) (*Pipeline, error) {
	var doc pipelineDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("homunculus: parse pipeline: %w", err)
	}
	if doc.Version != pipelineFormatVersion {
		return nil, fmt.Errorf("homunculus: unsupported pipeline format version %d (want %d)", doc.Version, pipelineFormatVersion)
	}
	pipe := &Pipeline{Platform: doc.Platform, Composition: doc.Composition}
	for _, ad := range doc.Apps {
		app := AppResult{
			Name:       ad.Name,
			Algorithm:  ad.Algorithm,
			Metric:     ad.Metric,
			Verdict:    ad.Verdict,
			Code:       ad.Code,
			Validation: ad.Validation,
		}
		if len(ad.Model) > 0 {
			m, err := ir.ReadJSON(bytes.NewReader(ad.Model))
			if err != nil {
				return nil, fmt.Errorf("homunculus: pipeline app %q: %w", ad.Name, err)
			}
			app.Model = m
		}
		pipe.Apps = append(pipe.Apps, app)
	}
	return pipe, nil
}

// searchWireDoc is the search half of a wire job: the cache key's
// effective-search document plus the result-affecting option flags, so a
// decoded job hashes to the same SpecHash as the original submission (old
// journals without the flags decode them false).
type searchWireDoc struct {
	searchKeyDoc
	Validate bool `json:"validate,omitempty"`
}

// encodeWireJob renders a submission in wire form — what the journal
// stores and what a peer executes. A declaration with an anonymous data
// loader has no wire form and fails here.
func encodeWireJob(p *alchemy.Platform, o *options) (store.WireJob, error) {
	spec, err := alchemy.MarshalPlatform(p)
	if err != nil {
		return store.WireJob{}, err
	}
	search, err := json.Marshal(searchWireDoc{searchKeyDoc: searchDocument(o.search), Validate: o.validate})
	if err != nil {
		return store.WireJob{}, fmt.Errorf("homunculus: encode search config: %w", err)
	}
	return store.WireJob{Spec: spec, Search: search}, nil
}

// decodeWireJob is the inverse, and the one place bytes from the journal
// or from a peer become a declaration: both documents parsed, every name
// resolved, the declaration validated. Observers (WithProgress,
// OnCandidate) are observability-only and do not cross the wire.
func decodeWireJob(wj store.WireJob) (*alchemy.Platform, *options, error) {
	p, err := alchemy.UnmarshalPlatform(wj.Spec)
	if err == nil {
		err = p.Validate()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("homunculus: wire spec: %w", err)
	}
	var doc searchWireDoc
	if err := json.Unmarshal(wj.Search, &doc); err != nil {
		return nil, nil, fmt.Errorf("homunculus: wire search config: %w", err)
	}
	o := &options{validate: doc.Validate, search: core.SearchConfig{
		Metric:          core.Metric(doc.Metric),
		BO:              doc.BO,
		MaxHiddenLayers: doc.MaxHiddenLayers,
		MaxNeurons:      doc.MaxNeurons,
		MaxClusters:     doc.MaxClusters,
		TrainEpochs:     doc.TrainEpochs,
		Format:          fixed.Format{IntBits: doc.FormatIntBits, FracBits: doc.FormatFracBits},
		Seed:            doc.Seed,
	}}
	for _, a := range doc.Algorithms {
		kind, err := ir.ParseKind(a)
		if err != nil {
			return nil, nil, fmt.Errorf("homunculus: wire search config: %w", err)
		}
		o.search.Algorithms = append(o.search.Algorithms, kind)
	}
	return p, o, nil
}
