package main

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestQuickReportGolden pins every number of the quick-budget report:
// the rendered bytes must equal testdata/quick.golden. A change that
// moves a number on purpose regenerates the file with
//
//	go run ./cmd/experiments -quick > cmd/experiments/testdata/quick.golden
//
// and says why in its description.
func TestQuickReportGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := report(&got, experiments.Quick(), "all"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("quick report differs from the golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
			}
		}
	}
}

func TestReportRejectsUnknownExperiment(t *testing.T) {
	if err := report(&bytes.Buffer{}, experiments.Quick(), "table9"); !errors.Is(err, errUnknownExperiment) {
		t.Fatalf("unknown experiment: err = %v", err)
	}
}
