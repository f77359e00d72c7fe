package store

import (
	"fmt"
	"path/filepath"
)

const (
	artifactsDir   = "artifacts"
	quarantineDir  = "quarantine"
	journalFile    = "journal.jsonl"
	manifestFile   = "endpoints.json"
	dirPermissions = 0o755
)

// Store is one opened state directory: the artifact store, the job
// journal, and the endpoint manifest.
type Store struct {
	fs  FS
	dir string

	// Artifacts is the content-addressed pipeline store.
	Artifacts *Artifacts
	// Journal is the write-ahead job log, opened for appending.
	Journal *Journal
}

// Open creates (if needed) the state directory layout under dir and
// replays the journal. fs selects the filesystem (OSFS when nil). It
// returns the store, the journal's parseable records in file order, and
// how many journal lines were skipped as corrupt.
func Open(dir string, fs FS) (*Store, []Record, int, error) {
	if fs == nil {
		fs = OSFS{}
	}
	if dir == "" {
		return nil, nil, 0, fmt.Errorf("store: state directory path is empty")
	}
	for _, sub := range []string{dir, filepath.Join(dir, artifactsDir), filepath.Join(dir, quarantineDir)} {
		if err := fs.MkdirAll(sub, dirPermissions); err != nil {
			return nil, nil, 0, fmt.Errorf("store: create state dir: %w", err)
		}
	}
	journal, records, skipped, err := openJournal(fs, filepath.Join(dir, journalFile), dir)
	if err != nil {
		return nil, nil, 0, err
	}
	s := &Store{
		fs:        fs,
		dir:       dir,
		Artifacts: newArtifacts(fs, filepath.Join(dir, artifactsDir), filepath.Join(dir, quarantineDir)),
		Journal:   journal,
	}
	return s, records, skipped, nil
}

// Close closes the journal's append handle.
func (s *Store) Close() error { return s.Journal.Close() }
