package store

// Journal is the write-ahead job log: one JSON record per line, appended
// before (submission) or after (transitions) the in-memory state change
// it describes. On boot the service replays it to learn which jobs were
// queued or running at crash time. Replay is defensive by design: a torn
// final record — the expected debris of a crash mid-append — or any
// garbage line is skipped and counted, never a boot failure.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Journal record operations.
const (
	// OpSubmitted records an admitted job with its full spec — the record
	// recovery recompiles from.
	OpSubmitted = "submitted"
	// OpRunning records dispatch (observability; recovery treats running
	// like submitted).
	OpRunning = "running"
	// OpDone records successful completion; SpecHash points at the
	// artifact carrying the result.
	OpDone = "done"
	// OpFailed / OpCancelled record terminal failures; recovery does not
	// re-run them.
	OpFailed    = "failed"
	OpCancelled = "cancelled"
)

// WireJob is a submission in wire form — the only one: the journal
// stores it, and a peer's backlog listing and steal grant carry it to the
// node that executes it. The root package's codec (persist.go) is the one
// place that writes and reads the two documents.
type WireJob struct {
	// Spec is the canonical platform wire document (alchemy.MarshalPlatform).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Search is the effective search configuration plus result-affecting flags.
	Search json.RawMessage `json:"search,omitempty"`
}

// Record is one journal line.
type Record struct {
	Seq int64  `json:"seq"`
	Op  string `json:"op"`
	Job string `json:"job"`
	// Platform is the declared backend kind (submitted records).
	Platform string `json:"platform,omitempty"`
	// WireJob is the submission itself (submitted records whose loaders
	// are catalog references; absent otherwise, in which case the job
	// cannot be recovered and is skipped with a warning).
	WireJob
	// SpecHash is the submission's content address (done records).
	SpecHash string `json:"spec_hash,omitempty"`
	// Error is the terminal error text (failed/cancelled records).
	Error string `json:"error,omitempty"`
}

// Journal is an append-only JSONL log. Safe for concurrent use.
type Journal struct {
	fs   FS
	path string
	dir  string

	mu  sync.Mutex
	f   File
	seq int64
	// torn is set when the file may not end in a newline (a failed
	// Append may have landed part of its line), so the next record
	// starts on a fresh line instead of gluing onto the fragment —
	// replay would otherwise skip both.
	torn bool
}

// openJournal replays an existing journal (if any) and opens it for
// appending. It returns the parseable records in file order and how many
// lines were skipped as unparseable (torn tail, garbage).
func openJournal(fs FS, path, dir string) (*Journal, []Record, int, error) {
	j := &Journal{fs: fs, path: path, dir: dir}
	records, skipped, err := j.replay()
	if err != nil {
		return nil, nil, 0, err
	}
	for _, r := range records {
		if r.Seq > j.seq {
			j.seq = r.Seq
		}
	}
	if err := j.open(); err != nil {
		return nil, nil, 0, err
	}
	return j, records, skipped, nil
}

func (j *Journal) open() error {
	f, err := j.fs.OpenFile(j.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open journal: %w", err)
	}
	j.f = f
	return nil
}

// replay reads the journal and parses it line by line. Unparseable lines
// (including a final line without a newline — a torn append) are skipped
// and counted.
func (j *Journal) replay() ([]Record, int, error) {
	raw, err := j.fs.ReadFile(j.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("store: read journal: %w", err)
	}
	var (
		records []Record
		skipped int
	)
	for len(raw) > 0 {
		line := raw
		if i := bytes.IndexByte(raw, '\n'); i >= 0 {
			line, raw = raw[:i], raw[i+1:]
		} else {
			// No trailing newline: the append was torn mid-record. The
			// line may still parse (torn exactly before the newline) —
			// try it, skip it otherwise.
			raw = nil
			j.torn = true
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Op == "" {
			skipped++
			continue
		}
		records = append(records, rec)
	}
	return records, skipped, nil
}

// Append writes one record, assigning its sequence number. With sync
// set the record is fsynced before Append returns (terminal records);
// without it the write reaches the OS but not necessarily the disk —
// that loses nothing on a process kill, only on power loss, and keeps
// the submission path fast.
func (j *Journal) Append(rec Record, sync bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("store: journal closed")
	}
	j.seq++
	rec.Seq = j.seq
	raw, err := json.Marshal(rec)
	if err != nil {
		j.seq--
		return fmt.Errorf("store: encode journal record: %w", err)
	}
	raw = append(raw, '\n')
	if j.torn {
		raw = append([]byte{'\n'}, raw...)
	}
	if _, err := j.f.Write(raw); err != nil {
		j.torn = true
		return fmt.Errorf("store: append journal: %w", err)
	}
	j.torn = false
	if sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("store: sync journal: %w", err)
		}
	}
	return nil
}

// Compact atomically replaces the journal's contents with keep (records
// are re-sequenced from 1) and reopens it for appending. Recovery calls
// it after replay so terminal history collapses out of the log instead
// of growing forever.
func (j *Journal) Compact(keep []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		_ = j.f.Close()
		j.f = nil
	}
	var buf bytes.Buffer
	for i := range keep {
		rec := keep[i]
		rec.Seq = int64(i + 1)
		raw, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("store: encode journal record: %w", err)
		}
		buf.Write(raw)
		buf.WriteByte('\n')
	}
	if err := writeFileAtomic(j.fs, j.path+".tmp", j.path, j.dir, buf.Bytes()); err != nil {
		return fmt.Errorf("store: compact journal: %w", err)
	}
	j.seq = int64(len(keep))
	j.torn = false
	return j.open()
}

// Close syncs and closes the append handle.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
