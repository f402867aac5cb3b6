package main

import (
	"strings"
	"testing"

	"sirius/internal/dcsim"
)

func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range experimentIDs() {
		if seen[id] {
			t.Fatalf("experiment id %q listed twice", id)
		}
		seen[id] = true
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	for _, spec := range []string{"fig8b", "fig1", "fig7a,fig13", ""} {
		_, err := selectExperiments(spec)
		if err == nil {
			t.Fatalf("%q: unknown id accepted", spec)
		}
		if !strings.Contains(err.Error(), "fig8bc") {
			t.Fatalf("%q: error does not name the valid ids: %v", spec, err)
		}
	}
}

func TestFoldedExperimentsResolve(t *testing.T) {
	folded := []string{"abl-eng", "abl-amdahl", "abl-mode", "eval", "queue"}
	got, err := selectExperiments(" " + strings.Join(folded, " , "))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(folded) {
		t.Fatalf("resolved %d experiments, want %d", len(got), len(folded))
	}
	for i, e := range got {
		if e.id != folded[i] {
			t.Fatalf("experiment %d is %q, want %q", i, e.id, folded[i])
		}
	}
	// The ablations read only the datacenter design.
	for _, e := range got[:3] {
		out, err := e.run(env{d: dcsim.NewDesign()})
		if err != nil || !strings.HasPrefix(out, "Ablation — ") {
			t.Fatalf("%s: %v %q", e.id, err, out)
		}
	}
}
