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
	"runtime"
	"slices"
	"strings"
	"time"

	"sirius/internal/dcsim"
	"sirius/internal/report"
	"sirius/internal/suite"
)

// env is what an experiment reads.
type env struct {
	h       *report.Harness
	d       dcsim.Design
	minTime time.Duration // per-kernel measurement time (tab5)
}

// experiment is one table, figure, ablation or scorecard.
type experiment struct {
	id  string
	run func(env) (string, error)
}

// The scorecard's held-out synthesis seed base and the live queue
// validation's load and QA executions.
const (
	evalSeed  = 12000
	queueLoad = 0.5
	queueN    = 400
)

// experiments is the reproduction in print order: -list prints these
// ids and -experiment selects from them.
var experiments = []experiment{
	{"fig7a", func(e env) (string, error) {
		r, err := e.h.RunFig7a()
		return r.String(), err
	}},
	{"fig7b", func(e env) (string, error) {
		r, err := e.h.RunFig7b()
		return r.String(), err
	}},
	{"fig8a", func(e env) (string, error) {
		rows, err := e.h.RunFig8a()
		return report.FormatFig8a(rows), err
	}},
	{"fig8bc", func(e env) (string, error) {
		rows, corr, err := e.h.RunFig8bc()
		return report.FormatFig8bc(rows, corr), err
	}},
	{"fig9", func(e env) (string, error) {
		rows, err := e.h.RunFig9()
		return report.FormatFig9(rows), err
	}},
	{"fig10", func(env) (string, error) { return report.FormatFig10(), nil }},
	{"tab5", func(e env) (string, error) {
		return report.FormatTable5(e.h.RunTable5(runtime.GOMAXPROCS(0), e.minTime)), nil
	}},
	{"fig14", func(e env) (string, error) { return report.FormatFig14(e.d), nil }},
	{"fig15", func(e env) (string, error) { return report.FormatFig15(e.d), nil }},
	{"fig16", func(e env) (string, error) { return report.FormatFig16(e.d), nil }},
	{"fig17", func(e env) (string, error) {
		out, err := report.FormatFig17(e.d)
		if err != nil {
			return "", err
		}
		tail, err := report.FormatFig17Tail(e.d, 0.5)
		return out + tail, err
	}},
	{"fig18", func(e env) (string, error) { return report.FormatFig18(e.d) }},
	{"fig19", func(e env) (string, error) { return report.FormatFig19(e.d) }},
	{"tab8", func(e env) (string, error) { return report.FormatTable8(e.d), nil }},
	{"tab9", func(e env) (string, error) { return report.FormatTable9(e.d) }},
	{"fig20", func(e env) (string, error) { return report.FormatFig20(e.d) }},
	{"fig21", func(e env) (string, error) {
		paper, err := report.FormatFig21(e.d, 165) // the paper's measured gap
		if err != nil {
			return "", err
		}
		r, err := e.h.RunFig7a()
		if err != nil {
			return "", err
		}
		live, err := report.FormatFig21(e.d, r.Gap)
		return paper + "(live-measured gap on this machine)\n" + live, err
	}},
	{"abl-eng", func(e env) (string, error) { return report.FormatAblationEngineering(e.d) }},
	{"abl-amdahl", func(e env) (string, error) { return report.FormatAblationAmdahl(e.d), nil }},
	{"abl-mode", func(e env) (string, error) { return report.FormatAblationMode(e.d), nil }},
	{"eval", func(e env) (string, error) {
		ev, err := e.h.RunEndToEndEval(evalSeed)
		return ev.String(), err
	}},
	{"queue", func(e env) (string, error) {
		v, err := e.h.RunLiveQueueValidation(queueLoad, queueN)
		return v.String(), err
	}},
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
	h, err := report.NewHarness(suite.DefaultScale())
	if err != nil {
		log.Fatal(err)
	}
	d, err := h.DesignFor(*measured)
	if err != nil {
		log.Fatal(err)
	}
	if *csvOut {
		if err := report.DumpCSV(d, os.Stdout); err != nil {
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
