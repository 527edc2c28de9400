// Command bench is the repository benchmark: it drives four workloads
// through the public Go API of the serving stack, the simulator and the
// offline trainer, checks their outputs, and prints each end-to-end
// metric by name with its unit. A traced run (-trace 1) times every call
// into each layer from the benchmark's own wrappers and prints the
// per-layer metrics instead. See README.md for the workloads, the
// metrics and how to run it.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bench [-workload all|serve-write|serve-read-mix|sim-metro|train-paper]
//	      [-seed N] [-seconds S] [-trace 0|1] [-runs N]
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

const (
	wServeWrite   = "serve-write"
	wServeReadMix = "serve-read-mix"
	wSimMetro     = "sim-metro"
	wTrainPaper   = "train-paper"
)

// env is one workload run's settings.
type env struct {
	seed   int64
	dur    time.Duration // how long the run measures
	traced bool
	root   string // checkout root: scenario and golden files are read there
	work   string // state directories and span files are written there
	rep    *report
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*env) error{
	wServeWrite:   func(e *env) error { return runServe(e, serveWriteParams) },
	wServeReadMix: func(e *env) error { return runServe(e, serveMixParams) },
	wSimMetro:     func(e *env) error { return runSim(e, simMetroParams) },
	wTrainPaper:   func(e *env) error { return runTrain(e, trainPaperParams) },
}

var workloadOrder = []string{wServeWrite, wServeReadMix, wSimMetro, wTrainPaper}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: all, "+fmt.Sprint(workloadOrder))
		seed     = fs.Int64("seed", 0, "workload seed: the same seed generates the same inputs")
		seconds  = fs.Float64("seconds", 20, "how long one workload run measures")
		trace    = fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		runs     = fs.Int("runs", 1, "repeat each workload this many times with seeds seed, seed+1, ... (each in its own process) and print medians and quartiles")
		root     = fs.String("root", ".", "repository checkout root")
		work     = fs.String("work", ".bench_build", "directory for serving state and span files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(stderr, "bench: -seconds and -runs must be positive")
		return 2
	}
	if _, err := os.Stat(filepath.Join(*root, "go.mod")); err != nil {
		fmt.Fprintf(stderr, "bench: %s is not a repository checkout: %v\n", *root, err)
		return 2
	}
	if problems := checkSpec(filepath.Join(*root, "BENCHMARK.json")); len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(stderr, "bench: BENCHMARK.json:", p)
		}
		return 2
	}
	names := workloadOrder
	if *workload != "all" {
		if workloads[*workload] == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	}
	if len(names) == 1 && *runs == 1 {
		return runOne(names[0], &env{
			seed:   *seed,
			dur:    time.Duration(*seconds * float64(time.Second)),
			traced: *trace == 1,
			root:   *root,
			work:   *work,
		}, stdout, stderr)
	}
	return runChildren(names, *seed, *runs, args, stdout, stderr)
}

// runOne runs one workload in this process and prints its result line.
func runOne(name string, e *env, stdout, stderr io.Writer) int {
	e.rep = newReport(name, stdout)
	mode := "untraced"
	if e.traced {
		mode = "traced"
	}
	fmt.Fprintf(stdout, "%s: seed %d, %s, %v\n", name, e.seed, mode, e.dur)
	if err := workloads[name](e); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	defs := endToEnd
	if e.traced {
		defs = perLayer
	} else {
		e.rep.set("peak_rss_mb", peakRSSMB(), 1)
	}
	res := e.rep.finish(defs)
	fmt.Fprintln(stdout, res.line())
	if !res.Correct {
		return 1
	}
	return 0
}

// writeSpans stores a traced run's spans under the work directory.
func writeSpans(e *env, tr *tracer) error {
	path := filepath.Join(e.work, "trace", fmt.Sprintf("%s-seed%d.jsonl", e.rep.workload, e.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	e.rep.notef("spans written to %s", path)
	return nil
}

// runChildren runs every (workload, seed) pair in its own process, so
// that heap and peak RSS belong to one workload, and prints each
// metric's median and quartiles per workload.
func runChildren(names []string, seed int64, runs int, args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, name := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		for k := 0; k < runs; k++ {
			childArgs := append(append([]string{}, args...), "-workload", name, "-runs", "1", "-seed", strconv.FormatInt(seed+int64(k), 10))
			var out bytes.Buffer
			cmd := exec.Command(self, childArgs...)
			cmd.Stdout = io.MultiWriter(&out, stdout)
			cmd.Stderr = stderr
			runErr := cmd.Run()
			res, err := parseResult(out.String())
			if runErr != nil || err != nil || !res.Correct {
				fmt.Fprintf(stderr, "bench: %s seed %d failed: %v %v\n", name, seed+int64(k), runErr, err)
				code = 1
				continue
			}
			for m, v := range res.Metrics {
				values[m] = append(values[m], v.Value)
				units[m] = v.Unit
			}
		}
		if runs > 1 && len(values) > 0 {
			printSpread(stdout, name, values, units)
		}
	}
	return code
}

// printSpread prints, per metric, the median, the quartiles and the
// interquartile range as a share of the median.
func printSpread(w io.Writer, name string, values map[string][]float64, units map[string]string) {
	var keys []string
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "== %s: median [q1, q3] over %d runs\n", name, len(values[keys[0]]))
	for _, k := range keys {
		q := quartiles(values[k])
		spread := 0.0
		if med := median(values[k]); med != 0 {
			spread = (q[2] - q[0]) / med
		}
		fmt.Fprintf(w, "%s %-34s %14.6g [%.6g, %.6g] %-6s spread %.4f\n", name, k, median(values[k]), q[0], q[2], units[k], spread)
	}
}
