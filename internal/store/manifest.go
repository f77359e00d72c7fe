package store

// The endpoint manifest is a whole-state snapshot (not a log): every
// lifecycle operation rewrites endpoints.json atomically, and boot
// recovery re-creates each named endpoint — revision history, routing,
// canary/shadow config — from it, loading the revision models out of the
// artifact store by spec hash.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// manifestVersion 3 persists each revision's effective serving document,
// the one its runtime was built from. Version 2 (canonical documents, a
// revision's holding only its rollout override) and version 1 (flat knob
// records, a separate max_delay_set flag) are still read; the service
// translates their records on restore and the next save rewrites the
// file as version 3.
const manifestVersion = 3

// Manifest is the persisted endpoint table.
type Manifest struct {
	// Version is the version the file was read at; SaveManifest always
	// writes manifestVersion.
	Version   int              `json:"version"`
	Endpoints []EndpointRecord `json:"endpoints"`
}

// EndpointRecord persists one named endpoint.
type EndpointRecord struct {
	Name     string `json:"name"`
	Platform string `json:"platform"`
	// CreatedUnixNano is when the endpoint was first created.
	CreatedUnixNano int64 `json:"created_unix_nano"`
	// Options is the endpoint's serving-config document, kept as raw
	// bytes: the store carries it, the service parses and validates it.
	Options json.RawMessage `json:"options"`
	// Stable/Canary/Shadow are the routing table's revision IDs (0 =
	// none); CanaryPercent is the live canary's traffic share.
	Stable        int `json:"stable"`
	Canary        int `json:"canary,omitempty"`
	CanaryPercent int `json:"canary_percent,omitempty"`
	Shadow        int `json:"shadow,omitempty"`
	// Revisions lists every revision in rollout order.
	Revisions []RevisionRecord `json:"revisions"`
}

// RevisionRecord persists one revision's identity and lifecycle place.
type RevisionRecord struct {
	ID int `json:"id"`
	// JobID is the compilation job the revision came from ("" when its
	// pipeline was supplied out of band).
	JobID string `json:"job_id,omitempty"`
	// App is the served application name inside the pipeline.
	App string `json:"app"`
	// SpecHash keys the artifact holding the revision's pipeline.
	SpecHash string `json:"spec_hash"`
	// State is "stable", "canary", "shadow", or "retired".
	State           string `json:"state"`
	CanaryPercent   int    `json:"canary_percent,omitempty"`
	CreatedUnixNano int64  `json:"created_unix_nano"`
	// Options is the revision's effective serving-config document
	// (versions 1 and 2: its rollout override, whose zero fields
	// inherit the endpoint's document).
	Options json.RawMessage `json:"options,omitempty"`
}

// SaveManifest atomically replaces the endpoint manifest.
func (s *Store) SaveManifest(m Manifest) error {
	m.Version = manifestVersion
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode manifest: %w", err)
	}
	raw = append(raw, '\n')
	path := filepath.Join(s.dir, manifestFile)
	if err := writeFileAtomic(s.fs, path+".tmp", path, s.dir, raw); err != nil {
		return fmt.Errorf("store: write manifest: %w", err)
	}
	return nil
}

// LoadManifest reads the endpoint manifest; a missing file is an empty
// manifest, and a corrupt one is surfaced as an error for the caller to
// log and skip (endpoints are then not restored — jobs still are).
func (s *Store) LoadManifest() (Manifest, error) {
	raw, err := s.fs.ReadFile(filepath.Join(s.dir, manifestFile))
	if err != nil {
		if os.IsNotExist(err) {
			return Manifest{Version: manifestVersion}, nil
		}
		return Manifest{}, fmt.Errorf("store: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return Manifest{}, fmt.Errorf("store: parse manifest: %w", err)
	}
	if m.Version < 1 || m.Version > manifestVersion {
		return Manifest{}, fmt.Errorf("store: unsupported manifest version %d (want 1 to %d)", m.Version, manifestVersion)
	}
	return m, nil
}
