package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testKey(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func openTest(t *testing.T, dir string, fs FS) (*Store, []Record, int) {
	t.Helper()
	s, recs, skipped, err := Open(dir, fs)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, recs, skipped
}

func TestArtifactRoundTrip(t *testing.T) {
	s, _, _ := openTest(t, t.TempDir(), nil)
	key := testKey("a")
	payload := []byte(`{"platform":"taurus","apps":[{"name":"ad"}]}`)
	if err := s.Artifacts.Put(key, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Artifacts.Get(key)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload mismatch:\n put %s\n got %s", payload, got)
	}
	if !s.Artifacts.Has(key) {
		t.Fatal("Has(key) = false after Put")
	}
	// Overwrite is idempotent.
	if err := s.Artifacts.Put(key, payload); err != nil {
		t.Fatalf("re-Put: %v", err)
	}
}

func TestArtifactMissingAndBadKey(t *testing.T) {
	s, _, _ := openTest(t, t.TempDir(), nil)
	if _, err := s.Artifacts.Get(testKey("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing = %v, want ErrNotFound", err)
	}
	if _, err := s.Artifacts.Get("../escape"); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("path-like key must be rejected outright, got %v", err)
	}
	if err := s.Artifacts.Put("not-a-hash", []byte(`{}`)); err == nil {
		t.Fatal("Put with a non-hex key must fail")
	}
}

func TestArtifactCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := openTest(t, dir, nil)
	key := testKey("b")
	if err := s.Artifacts.Put(key, []byte(`{"x":1}`)); err != nil {
		t.Fatalf("Put: %v", err)
	}

	cases := []struct {
		name    string
		corrupt func(path string) error
	}{
		{"truncated", func(p string) error {
			raw, _ := os.ReadFile(p)
			return os.WriteFile(p, raw[:len(raw)/2], 0o644)
		}},
		{"bitflip", func(p string) error {
			raw, _ := os.ReadFile(p)
			i := strings.Index(string(raw), `"x":1`)
			raw[i+4] = '2'
			return os.WriteFile(p, raw, 0o644)
		}},
		{"garbage", func(p string) error {
			return os.WriteFile(p, []byte("not json at all"), 0o644)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := s.Artifacts.Put(key, []byte(`{"x":1}`)); err != nil {
				t.Fatalf("Put: %v", err)
			}
			path := filepath.Join(dir, "artifacts", key+".json")
			if err := tc.corrupt(path); err != nil {
				t.Fatalf("corrupt: %v", err)
			}
			if _, err := s.Artifacts.Get(key); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Get corrupt = %v, want ErrCorrupt", err)
			}
			// The bad file is out of the serving path: a second Get is a
			// plain miss, and the quarantine holds the evidence.
			if _, err := s.Artifacts.Get(key); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after quarantine = %v, want ErrNotFound", err)
			}
			if _, err := os.Stat(filepath.Join(dir, "quarantine", key+".json")); err != nil {
				t.Fatalf("quarantined file missing: %v", err)
			}
		})
	}
}

func TestArtifactWrongKeyQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := openTest(t, dir, nil)
	key, other := testKey("c"), testKey("d")
	if err := s.Artifacts.Put(key, []byte(`{"x":1}`)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// A valid envelope filed under the wrong name (e.g. a botched manual
	// restore) must not serve.
	if err := os.Rename(filepath.Join(dir, "artifacts", key+".json"), filepath.Join(dir, "artifacts", other+".json")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Artifacts.Get(other); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get misfiled = %v, want ErrCorrupt", err)
	}
}

func TestArtifactPutFaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(f *FaultFS)
	}{
		{"write-enospc", func(f *FaultFS) { f.FailWrites(0) }},
		{"torn-write", func(f *FaultFS) { f.TearWrites(0) }},
		{"sync", func(f *FaultFS) { f.FailSyncs(0) }},
		{"rename", func(f *FaultFS) { f.FailRenames(0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := NewFaultFS(nil)
			s, _, _ := openTest(t, dir, fs)
			key := testKey("e")
			tc.arm(fs)
			err := s.Artifacts.Put(key, []byte(`{"x":1}`))
			if err == nil {
				t.Fatal("Put under fault must fail")
			}
			fs.Disarm()
			// The failed write left nothing behind that could serve.
			if _, err := s.Artifacts.Get(key); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after failed Put = %v, want ErrNotFound", err)
			}
			// The store recovers once the fault clears.
			if err := s.Artifacts.Put(key, []byte(`{"x":1}`)); err != nil {
				t.Fatalf("Put after fault cleared: %v", err)
			}
			if _, err := s.Artifacts.Get(key); err != nil {
				t.Fatalf("Get after recovery: %v", err)
			}
		})
	}
}

func TestJournalAppendReplay(t *testing.T) {
	dir := t.TempDir()
	s, recs, skipped := openTest(t, dir, nil)
	if len(recs) != 0 || skipped != 0 {
		t.Fatalf("fresh journal: %d records, %d skipped", len(recs), skipped)
	}
	must := func(rec Record, sync bool) {
		t.Helper()
		if err := s.Journal.Append(rec, sync); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	must(Record{Op: OpSubmitted, Job: "job-000001", Platform: "taurus", WireJob: WireJob{Spec: []byte(`{"kind":"taurus"}`)}}, false)
	must(Record{Op: OpRunning, Job: "job-000001"}, false)
	must(Record{Op: OpDone, Job: "job-000001", SpecHash: testKey("spec")}, true)
	_ = s.Close()

	_, recs, skipped = openTest(t, dir, nil)
	if skipped != 0 {
		t.Fatalf("skipped = %d, want 0", skipped)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != int64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}
	if recs[0].Op != OpSubmitted || recs[2].Op != OpDone || recs[2].SpecHash != testKey("spec") {
		t.Fatalf("unexpected replay: %+v", recs)
	}
}

func TestJournalCorruptTailTolerated(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail string
	}{
		{"torn-record", `{"seq":3,"op":"done","jo`},
		{"garbage", "\x00\xff garbage bytes"},
		{"empty-object", `{}`}, // parses but has no op — still skipped
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, _, _ := openTest(t, dir, nil)
			_ = s.Journal.Append(Record{Op: OpSubmitted, Job: "job-000001"}, false)
			_ = s.Journal.Append(Record{Op: OpRunning, Job: "job-000001"}, false)
			_ = s.Close()
			f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprint(f, tc.tail)
			_ = f.Close()

			s2, recs, skipped := openTest(t, dir, nil)
			if skipped != 1 {
				t.Fatalf("skipped = %d, want 1", skipped)
			}
			if len(recs) != 2 {
				t.Fatalf("replayed %d records, want 2", len(recs))
			}
			// The journal stays appendable after a torn tail.
			if err := s2.Journal.Append(Record{Op: OpDone, Job: "job-000001"}, true); err != nil {
				t.Fatalf("Append after torn tail: %v", err)
			}
		})
	}
}

func TestJournalCompact(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := openTest(t, dir, nil)
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("job-%06d", i+1)
		_ = s.Journal.Append(Record{Op: OpSubmitted, Job: id}, false)
		_ = s.Journal.Append(Record{Op: OpDone, Job: id, SpecHash: testKey(id)}, false)
	}
	_ = s.Journal.Append(Record{Op: OpSubmitted, Job: "job-000006", WireJob: WireJob{Spec: []byte(`{"kind":"taurus"}`)}}, false)

	// Compact down to the one live job.
	if err := s.Journal.Compact([]Record{{Op: OpSubmitted, Job: "job-000006", WireJob: WireJob{Spec: []byte(`{"kind":"taurus"}`)}}}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Appends continue after compaction with a consistent sequence.
	if err := s.Journal.Append(Record{Op: OpRunning, Job: "job-000006"}, false); err != nil {
		t.Fatalf("Append after Compact: %v", err)
	}
	_ = s.Close()

	_, recs, skipped := openTest(t, dir, nil)
	if skipped != 0 {
		t.Fatalf("skipped = %d after compaction", skipped)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records after compaction, want 2", len(recs))
	}
	if recs[0].Op != OpSubmitted || recs[0].Job != "job-000006" || string(recs[0].Spec) != `{"kind":"taurus"}` {
		t.Fatalf("compacted record lost data: %+v", recs[0])
	}
	if recs[1].Op != OpRunning || recs[1].Seq != 2 {
		t.Fatalf("post-compaction append wrong: %+v", recs[1])
	}
}

func TestJournalAppendFaultSurfaces(t *testing.T) {
	fs := NewFaultFS(nil)
	s, _, _ := openTest(t, t.TempDir(), fs)
	fs.FailWrites(0)
	if err := s.Journal.Append(Record{Op: OpSubmitted, Job: "job-000001"}, false); err == nil {
		t.Fatal("Append under ENOSPC must fail")
	}
	fs.Disarm()
	if err := s.Journal.Append(Record{Op: OpSubmitted, Job: "job-000001"}, true); err != nil {
		t.Fatalf("Append after fault cleared: %v", err)
	}
}

// TestJournalTornAppendKeepsNextRecord: a short write leaves a line
// fragment; the next, acknowledged record must not land on the same
// line, or replay drops it along with the fragment.
func TestJournalTornAppendKeepsNextRecord(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaultFS(nil)
	s, _, _ := openTest(t, dir, fs)
	if err := s.Journal.Append(Record{Op: OpSubmitted, Job: "job-000001"}, false); err != nil {
		t.Fatal(err)
	}
	fs.TearWrites(0)
	if err := s.Journal.Append(Record{Op: OpRunning, Job: "job-000001"}, false); err == nil {
		t.Fatal("torn Append must fail")
	}
	fs.Disarm()
	if err := s.Journal.Append(Record{Op: OpDone, Job: "job-000001", SpecHash: testKey("spec")}, true); err != nil {
		t.Fatalf("Append after torn write: %v", err)
	}
	_ = s.Close()

	s2, recs, skipped := openTest(t, dir, nil)
	if len(recs) != 2 || skipped != 1 || recs[len(recs)-1].Op != OpDone {
		t.Fatalf("replayed %d records, %d skipped: %+v; want submitted, done and the fragment skipped", len(recs), skipped, recs)
	}
	// A reopened journal whose tail is a fragment starts the next record
	// on a fresh line too.
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `{"seq":9,"op":"fail`)
	_ = f.Close()
	_ = s2.Close()
	s3, _, _ := openTest(t, dir, nil)
	if err := s3.Journal.Append(Record{Op: OpCancelled, Job: "job-000002"}, true); err != nil {
		t.Fatal(err)
	}
	_ = s3.Close()
	_, recs, skipped = openTest(t, dir, nil)
	if skipped != 2 || recs[len(recs)-1].Op != OpCancelled {
		t.Fatalf("after a torn tail: %d skipped, records %+v; want the cancelled record last", skipped, recs)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := openTest(t, dir, nil)
	m, err := s.LoadManifest()
	if err != nil || len(m.Endpoints) != 0 {
		t.Fatalf("fresh manifest: %+v, %v", m, err)
	}
	want := Manifest{Endpoints: []EndpointRecord{{
		Name: "ad", Platform: "taurus", Stable: 2, Canary: 3, CanaryPercent: 25,
		Options: json.RawMessage(`{"version":1,"shards":2,"batch_size":8,"queue_depth":64}`),
		Revisions: []RevisionRecord{
			{ID: 1, App: "anomaly", SpecHash: testKey("r1"), State: "retired"},
			{ID: 2, JobID: "job-000001", App: "anomaly", SpecHash: testKey("r2"), State: "stable"},
			{ID: 3, App: "anomaly", SpecHash: testKey("r3"), State: "canary", CanaryPercent: 25},
		},
	}}}
	if err := s.SaveManifest(want); err != nil {
		t.Fatalf("SaveManifest: %v", err)
	}
	got, err := s.LoadManifest()
	if err != nil {
		t.Fatalf("LoadManifest: %v", err)
	}
	if len(got.Endpoints) != 1 {
		t.Fatalf("endpoints = %d, want 1", len(got.Endpoints))
	}
	ep := got.Endpoints[0]
	if ep.Name != "ad" || ep.Stable != 2 || ep.Canary != 3 || ep.CanaryPercent != 25 || len(ep.Revisions) != 3 {
		t.Fatalf("manifest round trip lost data: %+v", ep)
	}
	if ep.Revisions[2].State != "canary" || ep.Revisions[2].CanaryPercent != 25 {
		t.Fatalf("revision round trip lost data: %+v", ep.Revisions[2])
	}
	// The config document is carried as bytes, not interpreted.
	var doc bytes.Buffer
	if err := json.Compact(&doc, ep.Options); err != nil || doc.String() != string(want.Endpoints[0].Options) {
		t.Fatalf("options document = %s (%v), want %s", ep.Options, err, want.Endpoints[0].Options)
	}
	if got.Version != 4 {
		t.Fatalf("saved manifest version = %d, want 4", got.Version)
	}

	// Version 1 to 3 files still load (the service translates their
	// records); unknown versions are refused.
	for version, ok := range map[int]bool{0: false, 1: true, 2: true, 3: true, 4: true, 5: false} {
		raw := fmt.Sprintf(`{"version":%d,"endpoints":[{"name":"old","options":{"batch_size":8,"max_delay_set":true}}]}`, version)
		if err := os.WriteFile(filepath.Join(dir, "endpoints.json"), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := s.LoadManifest()
		if ok != (err == nil) || (ok && (m.Version != version || len(m.Endpoints) != 1)) {
			t.Fatalf("version %d manifest: %+v, %v", version, m, err)
		}
	}

	// A corrupt manifest is an error, not a panic or silent empty table.
	if err := os.WriteFile(filepath.Join(dir, "endpoints.json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadManifest(); err == nil {
		t.Fatal("corrupt manifest must surface an error")
	}
}

func TestManifestSaveFault(t *testing.T) {
	fs := NewFaultFS(nil)
	s, _, _ := openTest(t, t.TempDir(), fs)
	if err := s.SaveManifest(Manifest{Endpoints: []EndpointRecord{{Name: "ad"}}}); err != nil {
		t.Fatalf("SaveManifest: %v", err)
	}
	fs.FailRenames(0)
	if err := s.SaveManifest(Manifest{}); err == nil {
		t.Fatal("SaveManifest under rename fault must fail")
	}
	fs.Disarm()
	// The previous snapshot survives a failed rewrite.
	m, err := s.LoadManifest()
	if err != nil || len(m.Endpoints) != 1 || m.Endpoints[0].Name != "ad" {
		t.Fatalf("prior manifest lost after failed save: %+v, %v", m, err)
	}
}
