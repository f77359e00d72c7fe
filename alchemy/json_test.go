package alchemy

import (
	"bytes"
	"strings"
	"testing"
)

func jsonTestData(scale float64) *Data {
	d := &Data{FeatureNames: []string{"a", "b"}}
	for i := 0; i < 8; i++ {
		d.TrainX = append(d.TrainX, []float64{float64(i) * scale, 1 - float64(i%2)})
		d.TrainY = append(d.TrainY, i%2)
		d.TestX = append(d.TestX, []float64{float64(i)*scale + 0.5, float64(i % 2)})
		d.TestY = append(d.TestY, i%2)
	}
	return d
}

func TestLoaderCatalog(t *testing.T) {
	RegisterLoader("json_test_ds", DataLoaderFunc(func() (*Data, error) { return jsonTestData(1), nil }))
	// Unregister, so that a second run in one process (-count=2) can
	// register the name again.
	t.Cleanup(func() {
		catMu.Lock()
		defer catMu.Unlock()
		delete(catalog, "json_test_ds")
	})
	if !LoaderRegistered("json_test_ds") {
		t.Fatal("registered loader not found")
	}
	l, err := LoaderFor("json_test_ds")
	if err != nil {
		t.Fatal(err)
	}
	if data, err := l.Load(); err != nil || len(data.TrainX) != 8 {
		t.Fatalf("catalog loader broken: %v", err)
	}
	_, err = LoaderFor("json_test_nope")
	if err == nil || !strings.Contains(err.Error(), "registered:") || !strings.Contains(err.Error(), "json_test_ds") {
		t.Fatalf("unknown-dataset error must list the catalog, got: %v", err)
	}
	// NamedLoader resolves lazily through the catalog and fingerprints
	// by name.
	named := NamedLoader("json_test_ds")
	if data, err := named.Load(); err != nil || len(data.TestX) != 8 {
		t.Fatalf("named loader broken: %v", err)
	}
	fp, err := DatasetFingerprint(named)
	if err != nil || fp != "catalog:json_test_ds" {
		t.Fatalf("named fingerprint = %q, %v", fp, err)
	}
}

func TestDatasetFingerprintByContent(t *testing.T) {
	mk := func(scale float64) DataLoader {
		return DataLoaderFunc(func() (*Data, error) { return jsonTestData(scale), nil })
	}
	a1, err := DatasetFingerprint(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := DatasetFingerprint(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("identical content must fingerprint identically")
	}
	if !strings.HasPrefix(a1, "sha256:") {
		t.Fatalf("anonymous loaders fingerprint by content, got %q", a1)
	}
	b, err := DatasetFingerprint(mk(2))
	if err != nil {
		t.Fatal(err)
	}
	if b == a1 {
		t.Fatal("different content must fingerprint differently")
	}
}

func TestPlatformRoundTrip(t *testing.T) {
	if !LoaderRegistered("json_test_rt") {
		RegisterLoader("json_test_rt", DataLoaderFunc(func() (*Data, error) { return jsonTestData(3), nil }))
	}
	m1 := NewModel(ModelSpec{
		Name: "m1", OptimizationMetric: "accuracy", Algorithms: []string{"dtree", "svm"},
		DataLoader: NamedLoader("json_test_rt")})
	m2 := NewModel(ModelSpec{Name: "m2", DataLoader: NamedLoader("json_test_rt")})
	p := Taurus()
	p.Constrain(Constraints{
		Performance: Performance{ThroughputGPkts: 2, LatencyNS: 400},
		Resources:   Resources{Rows: 12, Cols: 10},
	})
	// m1 scheduled twice: the wire format must preserve that both leaves
	// are the SAME model (load/search memoization depends on identity).
	p.Schedule(Seq(m1, Par(m2, m1)))

	raw, err := MarshalPlatform(p)
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := MarshalPlatform(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatal("canonical marshal must be deterministic")
	}

	back, err := UnmarshalPlatform(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind != PlatformTaurus {
		t.Fatalf("kind %q", back.Kind)
	}
	if back.Constraints.Performance.ThroughputGPkts != 2 || back.Constraints.Resources.Rows != 12 {
		t.Fatalf("constraints lost: %+v", back.Constraints)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	models := back.Sched.Models()
	if len(models) != 3 {
		t.Fatalf("models = %d, want 3 leaves", len(models))
	}
	if models[0] != models[2] {
		t.Fatal("repeated model leaves must share one *Model instance")
	}
	if models[0].Spec.OptimizationMetric != "accuracy" || len(models[0].Spec.Algorithms) != 2 {
		t.Fatalf("m1 spec lost: %+v", models[0].Spec)
	}
	if data, err := models[1].Spec.DataLoader.Load(); err != nil || len(data.TrainX) != 8 {
		t.Fatalf("deserialized loader must resolve through the catalog: %v", err)
	}
	// The round trip is canonical: marshalling the rebuilt platform
	// reproduces the bytes.
	raw3, err := MarshalPlatform(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw3) {
		t.Fatalf("round trip not canonical:\n%s\n%s", raw, raw3)
	}
}

func TestMarshalRejectsAnonymousLoader(t *testing.T) {
	m := NewModel(ModelSpec{Name: "anon",
		DataLoader: DataLoaderFunc(func() (*Data, error) { return jsonTestData(1), nil })})
	p := Taurus()
	p.Schedule(m)
	_, err := MarshalPlatform(p)
	if err == nil || !strings.Contains(err.Error(), "catalog") {
		t.Fatalf("anonymous loaders must not serialize, got: %v", err)
	}
}

func TestMarshalRejectsDuplicateModelNames(t *testing.T) {
	if !LoaderRegistered("json_test_dup") {
		RegisterLoader("json_test_dup", DataLoaderFunc(func() (*Data, error) { return jsonTestData(1), nil }))
	}
	a := NewModel(ModelSpec{Name: "same", DataLoader: NamedLoader("json_test_dup")})
	b := NewModel(ModelSpec{Name: "same", DataLoader: NamedLoader("json_test_dup")})
	p := Taurus()
	p.Schedule(Seq(a, b))
	if _, err := MarshalPlatform(p); err == nil {
		t.Fatal("two distinct models with one name must not serialize")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := map[string]string{
		"no kind":     `{"constraints":{}}`,
		"bad op":      `{"kind":"taurus","schedule":{"op":"loop","children":[]}}`,
		"no dataset":  `{"kind":"taurus","schedule":{"model":{"name":"x"}}}`,
		"no name":     `{"kind":"taurus","schedule":{"model":{"dataset":"d"}}}`,
		"not json":    `{`,
		"nil seq kid": `{"kind":"taurus","schedule":{"op":"seq","children":[null]}}`,
	}
	for label, raw := range cases {
		if _, err := UnmarshalPlatform([]byte(raw)); err == nil {
			t.Fatalf("%s: must fail", label)
		}
	}
}

func TestMetricValidatorListsAccepted(t *testing.T) {
	m := NewModel(ModelSpec{Name: "m", OptimizationMetric: "auc",
		DataLoader: DataLoaderFunc(func() (*Data, error) { return jsonTestData(1), nil })})
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "f1") || !strings.Contains(err.Error(), "vmeasure") {
		t.Fatalf("metric error must list accepted values, got: %v", err)
	}
}

func TestUnmarshalRejectsConflictingRepeatedModels(t *testing.T) {
	raw := `{"kind":"taurus","schedule":{"op":"seq","children":[
		{"model":{"name":"x","dataset":"a"}},
		{"model":{"name":"x","dataset":"b","metric":"accuracy"}}]}}`
	if _, err := UnmarshalPlatform([]byte(raw)); err == nil || !strings.Contains(err.Error(), "different specs") {
		t.Fatalf("conflicting repeated model must fail, got: %v", err)
	}
	// Identical repeats are fine and share one instance.
	ok := `{"kind":"taurus","schedule":{"op":"seq","children":[
		{"model":{"name":"x","dataset":"a"}},
		{"model":{"name":"x","dataset":"a"}}]}}`
	p, err := UnmarshalPlatform([]byte(ok))
	if err != nil {
		t.Fatal(err)
	}
	if ms := p.Sched.Models(); len(ms) != 2 || ms[0] != ms[1] {
		t.Fatal("identical repeats must share one *Model")
	}
}
