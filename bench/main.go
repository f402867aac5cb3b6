// Command bench is the end-to-end serving benchmark: it boots the real
// serving tiers in this process over loopback, drives them from two
// client connections, checks every reply against an in-process oracle,
// and reports service-level metrics plus a per-layer latency ledger.
// README.md in this directory describes workloads, metrics and bounds.
//
//	go run ./bench -workload voice -seed 1 -seconds 15 -trace 0   one run (what BENCHMARK.json's command does)
//	go run ./bench -seed 1 -reps 3 -out A.json                    every workload, one process each
//	go run ./bench -compare A.json B.json                         apply the bounds to two sets of runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// resultLine is the last line of a run's standard output, in the shape
// BENCHMARK.json's driver reads.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// document is what -out writes and -compare reads: a set of runs.
type document struct {
	Header header   `json:"header"`
	Runs   []result `json:"runs"`
	// Claim is what the runs are offered as evidence for. This benchmark
	// only measures; a change that claims a gain says so in its own PR.
	Claim *string `json:"claim"`
}

func main() {
	workload := flag.String("workload", "", "run one workload in this process (default: all, one process each)")
	seed := flag.Int64("seed", 1, "seed of the inputs, their order and the arrival schedule")
	seconds := flag.Float64("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = split the seconds between closed loop, paced phase, traced phase and layer replay, and report the ungated metrics")
	traceOut := flag.String("trace-out", "", "with -trace 1 and -workload: write the recorded spans to this file")
	out := flag.String("out", "", "write the run(s) as JSON to this file")
	reps := flag.Int("reps", 1, "without -workload: repetitions of every workload")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: bench -compare A.json B.json")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err.Error())
		}
		if worse {
			os.Exit(1)
		}
	case *workload != "":
		cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut}
		res, err := runWorkload(cfg)
		if err != nil {
			fatal(err.Error())
		}
		report(os.Stdout, res)
		if *out != "" {
			if err := writeDocument(*out, []result{res}); err != nil {
				fatal(err.Error())
			}
		}
		defs := endToEnd
		if cfg.trace {
			defs = perLayer
		}
		line, _ := json.Marshal(resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: pick(defs, res.Metrics)})
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	default:
		if err := runAll(*seed, *seconds, *trace, *reps, *out); err != nil {
			fatal(err.Error())
		}
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(2)
}

// runAll runs every workload in a process of its own, so heap, CPU and
// goroutine counts are per workload, and gathers what they wrote.
func runAll(seed int64, seconds float64, trace, reps int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var runs []result
	failed := false
	for rep := 0; rep < reps; rep++ {
		for _, wl := range workloads {
			part, err := os.CreateTemp(".", ".bench-run-*.json")
			if err != nil {
				return err
			}
			part.Close()
			cmd := exec.Command(self, "-workload", wl.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", part.Name())
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			doc, readErr := readDocument(part.Name())
			os.Remove(part.Name())
			if readErr != nil {
				return fmt.Errorf("workload %s: %v (%v)", wl.name, runErr, readErr)
			}
			runs = append(runs, doc.Runs...)
			failed = failed || runErr != nil
		}
	}
	if out != "" {
		if err := writeDocument(out, runs); err != nil {
			return err
		}
	}
	mismatches := 0
	for _, r := range runs {
		mismatches += r.Mismatches
	}
	fmt.Printf("{\"runs\": %d, \"oracle_mismatches\": %d, \"claim\": null}\n", len(runs), mismatches)
	if failed {
		return fmt.Errorf("a workload run failed")
	}
	return nil
}

func writeDocument(path string, runs []result) error {
	b, err := json.MarshalIndent(document{Header: newHeader(), Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readDocument(path string) (document, error) {
	var doc document
	b, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	return doc, json.Unmarshal(b, &doc)
}

// report prints one run for a reader: where it ran, the per-phase
// request counts, every metric by name with its unit, and the ledger.
func report(w io.Writer, res result) {
	h := newHeader()
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%g trace=%t\n", res.Workload, res.Seed, res.Seconds, res.Trace)
	fmt.Fprintf(w, "# nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s clients=%d\n", h.NProc, h.GOMAXPROCS, h.CPU, h.Go, h.Commit, clients)
	fmt.Fprintf(w, "%-8s %9s %9s %6s %8s\n", "phase", "attempted", "succeeded", "failed", "wall_s")
	for _, p := range res.Phases {
		fmt.Fprintf(w, "%-8s %9d %9d %6d %8.2f\n", p.Name, p.Attempted, p.Succeeded, p.Failed, p.WallS)
	}
	row := func(d metricDef) {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  (%s is better, may worsen %.0f%%)", d.Better, 100*d.Bound)
		}
		fmt.Fprintf(w, "%-34s %14.4f %-6s%s\n", d.Name, res.Metrics[d.Name], d.Unit, bound)
	}
	for _, d := range endToEnd {
		row(d)
	}
	if res.Trace {
		for _, d := range perLayer {
			row(d)
		}
		fmt.Fprintf(w, "%-22s %7s %10s %s\n", "ledger: layer", "spans", "self_s", "share of client span")
		for _, l := range res.Ledger {
			fmt.Fprintf(w, "%-22s %7d %10.4f %6.1f%%\n", l.Layer, l.Spans, l.SelfS, 100*l.Share)
		}
	}
	if len(res.Unsupported) > 0 {
		fmt.Fprintf(w, "fewer than %d samples beyond: %s\n", minBeyond, strings.Join(res.Unsupported, "; "))
	}
	for _, tier := range sortedKeys(res.TierErrors) {
		fmt.Fprintf(w, "%s wrote %d lines to its HTTP error log\n", tier, res.TierErrors[tier])
	}
	if res.TierError != "" {
		fmt.Fprintf(w, "first error-log line: %s\n", res.TierError)
	}
	if res.Rejected > 0 {
		fmt.Fprintf(w, "inputs drawn and left out because the tiers answer them wrongly: %d\n", res.Rejected)
	}
	if res.Failure != "" {
		fmt.Fprintf(w, "first failed request: %s\n", res.Failure)
	}
	fmt.Fprintf(w, "oracle mismatches: %d %s\n", res.Mismatches, res.Mismatch)
}

// sortedKeys is used wherever a map is printed.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
