package main

import (
	"os"
	"strings"
	"testing"

	"sirius/internal/dcsim"
)

// goldenExperiments are the experiments sirius-bench derives from the
// accelerator and datacenter models alone, in print order. Under the
// default design (no -measured) their text depends on nothing this
// machine measures, so it is pinned byte for byte. "fig21" is the half
// of Fig 21 at the paper's 165x gap; the other half starts from a gap
// measured live.
var goldenExperiments = []string{"fig10", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
	"tab8", "tab9", "fig20", "fig21", "abl-eng", "abl-amdahl", "abl-mode"}

// TestModelOutputGolden holds each model-derived experiment, as
// sirius-bench prints it (its text, then a newline), to
// testdata/model.golden, and the -csv dump to testdata/model.csv.
func TestModelOutputGolden(t *testing.T) {
	d := dcsim.NewDesign()
	var text strings.Builder
	for _, id := range goldenExperiments {
		out, err := modelOutput(d, id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		text.WriteString(out + "\n")
	}
	assertGolden(t, "testdata/model.golden", text.String())
	csv, err := modelOutput(d, "csv")
	if err != nil {
		t.Fatalf("csv: %v", err)
	}
	assertGolden(t, "testdata/model.csv", csv)
}

// assertGolden fails at the first line where got differs from the file.
func assertGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s line %d:\n got  %q\n want %q", path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", path, len(gotLines), len(wantLines))
}
