package main

// Checked-in goldens for the default seed. Fixed-seed search is
// deterministic, so a compiled artifact and the classes it serves repeat
// exactly; a mismatch is printed as golden_changed — a flag for the
// reviewer (a change that alters search results moves them on purpose),
// not a failure.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
)

const goldenSeed = 1

// goldenJob pins one compiled pipeline: its achieved objective and the
// sha256 of its canonical artifact document.
type goldenJob struct {
	Shape   string  `json:"shape"`
	Quality float64 `json:"model_quality"`
	Digest  string  `json:"artifact_sha256"`
}

type goldenDoc struct {
	Jobs []goldenJob `json:"jobs"`
	// ClassifyDigest pins the reference classes of a serve workload's
	// whole vector pool.
	ClassifyDigest string `json:"classify_sha256,omitempty"`
}

func goldenPath(workload string) string {
	return filepath.Join(rootDir(), "bench", "golden", fmt.Sprintf("%s-seed%d.json", workload, goldenSeed))
}

// goldenChanged compares got with the checked-in golden; a missing
// golden file counts as changed.
func goldenChanged(workload string, got goldenDoc) bool {
	raw, err := os.ReadFile(goldenPath(workload))
	if err != nil {
		return true
	}
	var want goldenDoc
	if err := json.Unmarshal(raw, &want); err != nil {
		return true
	}
	return !reflect.DeepEqual(want, got)
}

func writeGolden(workload string, got goldenDoc) error {
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(workload)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(workload), append(raw, '\n'), 0o644)
}
