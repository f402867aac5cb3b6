// Command sirius-bench is the one driver of the paper reproduction: it
// regenerates the paper's tables and figures, the datacenter ablations
// and the end-to-end scorecard from the live Go implementation plus the
// accelerator/datacenter models, and prints the same rows/series the
// paper reports. Kernel micro-benchmarks are `go test -bench` in each
// kernel's own package.
//
// Usage:
//
//	sirius-bench                          # run every experiment
//	sirius-bench -experiment fig14,tab8   # a subset
//	sirius-bench -measured                # use service times measured on this machine
//	sirius-bench -list                    # list experiment ids
//	sirius-bench -csv                     # model-derived experiments as tidy CSV
//	sirius-bench -experiment tab5 -mintime 200ms  # Suite kernels, serial vs parallel
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"sirius/internal/dcsim"
)

// env is what an experiment reads.
type env struct {
	h       *harness
	d       dcsim.Design
	minTime time.Duration // per-kernel measurement time (tab5)
}

// experiment is one table, figure, ablation or scorecard.
type experiment struct {
	id  string
	run func(env) (string, error)
}

// experiments is the reproduction in print order: -list prints these
// ids and -experiment selects from them.
var experiments = []experiment{
	{"fig7a", fig7a},
	{"fig7b", fig7b},
	{"fig8a", fig8a},
	{"fig8bc", fig8bc},
	{"fig9", fig9},
	{"fig10", fig10},
	{"tab5", tab5},
	{"fig14", fig14},
	{"fig15", fig15},
	{"fig16", fig16},
	{"fig17", fig17},
	{"fig18", fig18},
	{"fig19", fig19},
	{"tab8", tab8},
	{"tab9", tab9},
	{"fig20", fig20},
	{"fig21", fig21},
	{"abl-eng", ablEngineering},
	{"abl-amdahl", ablAmdahl},
	{"abl-mode", ablMode},
	{"eval", eval},
	{"queue", queue},
}

func experimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// selectExperiments resolves a comma-separated id list, or "all", against
// the table, in table order. An unknown id is an error naming the valid
// ones.
func selectExperiments(spec string) ([]experiment, error) {
	if spec == "all" {
		return experiments, nil
	}
	ids := experimentIDs()
	want := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(ids, id) {
			return nil, fmt.Errorf("unknown experiment %q; valid ids: %s", id, strings.Join(ids, ", "))
		}
		want[id] = true
	}
	var out []experiment
	for _, e := range experiments {
		if want[e.id] {
			out = append(out, e)
		}
	}
	return out, nil
}

func main() {
	spec := flag.String("experiment", "all", "comma-separated experiment ids, or 'all'")
	measured := flag.Bool("measured", false, "use service decompositions measured on this machine instead of paper-scale defaults")
	list := flag.Bool("list", false, "list experiment ids and exit")
	csvOut := flag.Bool("csv", false, "dump the model-derived experiments as tidy CSV and exit")
	minTime := flag.Duration("mintime", 100*time.Millisecond, "per-kernel measurement time (tab5)")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experimentIDs(), "\n"))
		return
	}
	selected, err := selectExperiments(*spec)
	if err != nil {
		log.Fatal(err)
	}

	log.Printf("building harness (pipeline + suite kernels)...")
	h, err := newHarness()
	if err != nil {
		log.Fatal(err)
	}
	d, err := h.designFor(*measured)
	if err != nil {
		log.Fatal(err)
	}
	if *csvOut {
		if err := dumpCSV(d, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	mode := "paper-scale default service times"
	if *measured {
		mode = "service times measured on this machine"
	}
	fmt.Printf("=== Sirius reproduction harness (%s) ===\n\n", mode)

	e := env{h: h, d: d, minTime: *minTime}
	for _, x := range selected {
		out, err := x.run(e)
		if err != nil {
			log.Fatalf("%s: %v", x.id, err)
		}
		fmt.Println(out)
	}
}
