package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// journalSeeds writes the journals the store tests write, through
// Append, and returns their bytes: an empty one, a submitted/running/done
// history, and that history followed by each torn or corrupt tail the
// tests append by hand.
func journalSeeds(f *testing.F) [][]byte {
	dir := f.TempDir()
	s, _, _, err := Open(dir, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []Record{
		{Op: OpSubmitted, Job: "job-000001", Platform: "taurus", WireJob: WireJob{Spec: []byte(`{"kind":"taurus"}`)}},
		{Op: OpRunning, Job: "job-000001"},
		{Op: OpDone, Job: "job-000001", SpecHash: testKey("spec")},
		{Op: OpFailed, Job: "job-000002", Error: "no feasible model"},
	} {
		if err := s.Journal.Append(rec, false); err != nil {
			f.Fatal(err)
		}
	}
	_ = s.Close()
	history, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{nil, history}
	for _, tail := range []string{
		`{"seq":3,"op":"done","jo`,
		`{"seq":9,"op":"fail`,
		"\x00\xff garbage bytes",
		`{}`,
		`{"seq":5,"op":"cancelled","job":"job-000003"}`, // whole, but no newline
	} {
		seeds = append(seeds, append(append([]byte{}, history...), tail...))
	}
	return seeds
}

// FuzzJournalAppendAfterReplay writes fuzzed bytes as an existing
// journal, opens the store over it, appends one record with sync, closes
// and reopens. Whatever the bytes were (a torn tail, garbage, records
// with any sequence numbers), the record must replay last, after exactly
// the records the first open returned, and nothing may panic.
func FuzzJournalAppendAfterReplay(f *testing.F) {
	for _, seed := range journalSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalFile), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, before, _, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("Open over a fuzzed journal: %v", err)
		}
		r := Record{Op: OpDone, Job: "job-fuzz", SpecHash: testKey("fuzz")}
		if err := s.Journal.Append(r, true); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, after, _, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s2.Close()

		if len(after) != len(before)+1 {
			t.Fatalf("reopen replayed %d records, want the %d before the append plus it", len(after), len(before))
		}
		var seq int64
		for i, rec := range before {
			if !reflect.DeepEqual(after[i], rec) {
				t.Fatalf("record %d changed: first open %+v, reopen %+v", i, rec, after[i])
			}
			seq = max(seq, rec.Seq)
		}
		r.Seq = seq + 1
		if got := after[len(before)]; !reflect.DeepEqual(got, r) {
			t.Fatalf("last record = %+v, want the appended %+v", got, r)
		}
	})
}
