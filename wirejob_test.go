package homunculus

// Format pins and the wire-job decoder's fuzz target. The fixtures under
// testdata/ were written by the code at 3dee105 (the parent of the PR
// that collapsed the submission codecs), so these tests fail if journal
// lines, artifact documents or spec hashes move by a byte.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/alchemy"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/store"
)

// pinConfig is the non-default search configuration the fixtures and the
// pinned hashes were produced under.
func pinConfig() core.SearchConfig {
	cfg := fastConfig()
	cfg.Seed = 7
	cfg.TrainEpochs = 6
	cfg.MaxClusters = 5
	cfg.Algorithms = []ir.Kind{ir.DTree}
	return cfg
}

// journalFixture returns the checked-in journal's records.
func journalFixture(t testing.TB) []store.Record {
	t.Helper()
	raw, err := os.ReadFile("testdata/journal_v1.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	var recs []store.Record
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var rec store.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestJournalV1Recovers: a state dir holding a journal the parent wrote —
// one finished job, one interrupted under a non-default search
// configuration with validate:true — requeues the interrupted job under
// its original ID and finishes it at the spec hash the parent computed.
func TestJournalV1Recovers(t *testing.T) {
	durablePlatform(t) // registers the fixture's dataset
	dir := t.TempDir()
	raw, err := os.ReadFile("testdata/journal_v1.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	svc := mustOpen(t, dir, nil)
	defer svc.Close()
	rep := svc.Recovery()
	if len(rep.JobsRequeued) != 1 || rep.JobsRequeued[0] != "job-000003" || len(rep.JobsSkipped) != 0 || svc.StoreErrors() != 0 {
		t.Fatalf("recovery: %+v (%d store errors)", rep, svc.StoreErrors())
	}
	job, ok := svc.Job("job-000003")
	if !ok {
		t.Fatal("interrupted job not reachable under its original ID")
	}
	pipe, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const want = "70e76d7bd9a2ec7223af3bac90c6475f2a20da5c2d33f76ca3421a9b158582f2"
	if got := job.Status().SpecHash; got != want {
		t.Fatalf("recovered job hashed to %s, the parent hashed it to %s", got, want)
	}
	if pipe.Apps[0].Validation == nil {
		t.Fatal("validate:true was lost on the way back from the journal")
	}
}

// TestJournalV1ReencodesExactly: decoding a submitted record and encoding
// it again reproduces its spec and search blobs byte for byte.
func TestJournalV1ReencodesExactly(t *testing.T) {
	submitted := 0
	for _, rec := range journalFixture(t) {
		if rec.Op != store.OpSubmitted {
			continue
		}
		submitted++
		p, o, err := decodeWireJob(rec.WireJob)
		if err != nil {
			t.Fatalf("%s: %v", rec.Job, err)
		}
		again, err := encodeWireJob(p, o)
		if err != nil {
			t.Fatalf("%s: %v", rec.Job, err)
		}
		if !bytes.Equal(again.Spec, rec.Spec) || !bytes.Equal(again.Search, rec.Search) {
			t.Fatalf("%s re-encoded differently:\n%s\n%s\nvs\n%s\n%s", rec.Job, again.Spec, again.Search, rec.Spec, rec.Search)
		}
	}
	if submitted != 2 {
		t.Fatalf("fixture has %d submitted records, want 2", submitted)
	}
}

// TestPipelineV1ReencodesExactly: the artifact document — models, verdict
// metrics, validation reports with and without a repro, a composition —
// survives unmarshal → marshal byte for byte.
func TestPipelineV1ReencodesExactly(t *testing.T) {
	raw, err := os.ReadFile("testdata/pipeline_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := UnmarshalPipeline(raw)
	if err != nil {
		t.Fatal(err)
	}
	again, err := MarshalPipeline(pipe)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, raw) {
		t.Fatalf("artifact document moved:\n%s\nvs\n%s", again, raw)
	}
	if v := pipe.Apps[1].Validation; v == nil || v.Divergences != 2 || len(v.Repro) == 0 || pipe.Composition == nil {
		t.Fatalf("fixture lost structure: %+v", pipe)
	}
}

// TestSpecHashPinned: content addresses computed at the parent.
func TestSpecHashPinned(t *testing.T) {
	named := func(name, loader, metric string, algos ...string) *alchemy.Model {
		return alchemy.NewModel(alchemy.ModelSpec{Name: name, OptimizationMetric: metric, Algorithms: algos, DataLoader: alchemy.NamedLoader(loader)})
	}
	one := alchemy.Taurus()
	one.Schedule(named("pin_app", "pin_ds_a", "", "dtree"))
	two := alchemy.Tofino()
	two.Schedule(alchemy.Seq(named("pin_first", "pin_ds_a", "", "dtree"), named("pin_second", "pin_ds_b", "accuracy", "svm", "dnn")))
	for _, tc := range []struct {
		label string
		p     *alchemy.Platform
		cfg   core.SearchConfig
		opts  []Option
		want  string
	}{
		{"plain", one, fastConfig(), nil, "3eaa612ec00676593d42047d7a4f1d4408d5b60cd382f50557a4f48225de5c89"},
		{"validated", one, fastConfig(), []Option{WithValidation()}, "91461f1f5f622df6655e243efc020c33cd511f2fa2d09c152f4041de704ca56e"},
		{"two-model seq", two, pinConfig(), nil, "68a46784d7256e9ce45463d1ace49f8ac0fd4b16fad0e819fcc494192debbce4"},
	} {
		got, err := SpecHash(tc.p, tc.cfg, tc.opts...)
		if err != nil || got != tc.want {
			t.Fatalf("%s: SpecHash = %s, %v; the parent computed %s", tc.label, got, err, tc.want)
		}
	}
}

// countingLoader is a catalog-named loader that counts its Loads.
type countingLoader struct{ loads atomic.Int32 }

func (c *countingLoader) LoaderName() string { return "counting_ds" }

func (c *countingLoader) Load() (*alchemy.Data, error) {
	c.loads.Add(1)
	return sampleLoader(11).Load()
}

// TestUnknownAlgorithmRefusedAtTheDoor: every way in refuses an unknown
// algorithm name with the same text, listing the accepted ones — nothing
// is admitted, journaled or loaded.
func TestUnknownAlgorithmRefusedAtTheDoor(t *testing.T) {
	loader := &countingLoader{}
	p := alchemy.Taurus()
	p.Schedule(alchemy.NewModel(alchemy.ModelSpec{Name: "x", Algorithms: []string{"dtree", "bogus"}, DataLoader: loader}))
	spec, err := alchemy.MarshalPlatform(p)
	if err != nil {
		t.Fatal(err)
	}
	good, err := encodeWireJob(durablePlatform(t), &options{search: fastConfig()})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	svc := mustOpen(t, dir, nil)
	defer svc.Close()
	ctx := context.Background()
	_, submitErr := svc.Submit(ctx, p)
	_, remoteErr := svc.SubmitRemote(ctx, p)
	_, wireErr := svc.SubmitWire(ctx, store.WireJob{Spec: spec, Search: good.Search})
	_, hashErr := SpecHash(p, fastConfig())
	const want = `alchemy: model "x": ir: unknown algorithm "bogus" (accepted: [dnn svm kmeans dtree])`
	for label, err := range map[string]error{"Submit": submitErr, "SubmitRemote": remoteErr, "SubmitWire": wireErr, "SpecHash": hashErr} {
		if err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Fatalf("%s: %v, want an error ending in %q", label, err, want)
		}
	}
	if n := len(svc.Jobs()); n != 0 || loader.loads.Load() != 0 {
		t.Fatalf("refused submissions left %d jobs and %d dataset loads", n, loader.loads.Load())
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "journal.jsonl")); err != nil || len(raw) != 0 {
		t.Fatalf("refused submissions were journaled (%v):\n%s", err, raw)
	}
}

// FuzzWireJobDecode: the one decoder behind journal recovery, SubmitWire
// and ClaimForSteal never panics on hostile bytes, and whatever it
// accepts re-encodes to a document that decodes to the same spec hash.
func FuzzWireJobDecode(f *testing.F) {
	var search []byte
	for _, rec := range journalFixture(f) {
		if rec.Op == store.OpSubmitted {
			search = rec.Search
			f.Add([]byte(rec.Spec), search)
		}
	}
	leaf := func(model string) string {
		return `{"kind":"taurus","constraints":{},"schedule":` + model + `}`
	}
	f.Add([]byte(nil), []byte(nil))
	f.Add([]byte(`{}`), []byte(`{}`))
	f.Add([]byte(leaf(`{"model":{"name":"m","algorithms":["bogus"],"dataset":"d"}}`)), search)
	f.Add([]byte(leaf(`{"model":{"name":"m","dataset":"d"}}`)), []byte(`{"algorithms":["bogus"]}`))
	f.Add([]byte(leaf(`{"op":"seq","children":[{"model":{"name":"m","dataset":"d"}},{"model":{"name":"m","dataset":"e"}}]}`)), search)
	f.Add([]byte(leaf(`{"op":"par","iomap":"route","children":[{"model":{"name":"m","metric":"vmeasure","dataset":"d","normalize":false}},{"model":{"name":"m","metric":"vmeasure","dataset":"d","normalize":false}}]}`)), []byte(`{"metric":"f1","seed":-1,"validate":true}`))
	f.Add([]byte(leaf(strings.Repeat(`{"op":"seq","children":[`, 10000)+`{"model":{"name":"m","dataset":"d"}}`+strings.Repeat(`]}`, 10000))), search)
	f.Fuzz(func(t *testing.T, spec, search []byte) {
		p, o, err := decodeWireJob(store.WireJob{Spec: spec, Search: search})
		if err != nil {
			return
		}
		want, err := specHash(p, o.search, o.validate, nil)
		if err != nil {
			t.Fatalf("accepted a submission that does not hash: %v", err)
		}
		again, err := encodeWireJob(p, o)
		if err != nil {
			t.Fatalf("accepted a submission that does not re-encode: %v", err)
		}
		p2, o2, err := decodeWireJob(again)
		if err != nil {
			t.Fatalf("re-encoded document %s %s does not decode: %v", again.Spec, again.Search, err)
		}
		if got, err := specHash(p2, o2.search, o2.validate, nil); err != nil || got != want {
			t.Fatalf("spec hash moved across re-encoding: %s, %v; want %s\n%s %s", got, err, want, again.Spec, again.Search)
		}
	})
}
