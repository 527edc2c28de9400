package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// metricDef declares one reported metric. on lists the workloads whose
// path runs the measured layer; every other workload bypasses that layer
// and reports 0 for it (the prediction there is "no change"). Only
// counts, byte sizes, rates and ratios may be absent somewhere: a time
// metric must be measured on every workload.
type metricDef struct {
	name, unit, better string
	on                 []string
}

var (
	serveWorkloads = []string{wServeWrite, wServeReadMix}
	allWorkloads   = []string{wServeWrite, wServeReadMix, wSimMetro, wTrainPaper}
)

// endToEnd are the metrics a user of each workload sees, printed by an
// untraced run. Each workload gives each name its own operation; the
// README's table spells the mapping out.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", allWorkloads},
	{"p50_ms", "ms", "lower", allWorkloads},
	{"tail_ms", "ms", "lower", allWorkloads},
	{"throughput_per_s", "1/s", "higher", allWorkloads},
	{"utility_ratio", "ratio", "higher", allWorkloads},
	{"peak_rss_mb", "MB", "lower", allWorkloads},
}

// perLayer are the metrics of single layers, printed by a traced run.
// Layer busy time is reported as calls per busy second (the inverse of
// the mean call time) so that a workload that never calls a layer
// reports a rate of 0 instead of a time that never varies.
var perLayer = []metricDef{
	{"trace.ops", "count", "higher", allWorkloads},
	{"trace.op_mean_us", "us", "lower", allWorkloads},
	{"trace.op_p99_us", "us", "lower", allWorkloads},
	{"trace.overhead_ratio", "ratio", "lower", allWorkloads},

	{"serve.rounds", "count", "higher", serveWorkloads},
	{"serve.updates", "count", "higher", serveWorkloads},
	{"serve.rotations", "count", "higher", serveWorkloads},
	{"serve.rotate_errors", "count", "lower", serveWorkloads},
	{"serve.checkpoint_bytes", "B", "lower", serveWorkloads},
	{"serve.journal_bytes_per_round", "B", "lower", serveWorkloads},
	{"serve.wait_share", "ratio", "lower", serveWorkloads},
	{"stackelberg.new_game_per_s", "1/s", "higher", serveWorkloads},
	{"sim.prep_quote_per_s", "1/s", "higher", serveWorkloads},
	{"sim.price_round_per_s", "1/s", "higher", serveWorkloads},
	{"sim.update_round_per_s", "1/s", "higher", serveWorkloads},
	{"nn.checkpoint_encode_per_s", "1/s", "higher", serveWorkloads},
	{"fs.checkpoint_commit_per_s", "1/s", "higher", serveWorkloads},

	{"replica.quote_per_s", "1/s", "higher", []string{wServeReadMix}},
	{"replica.refresh_per_s", "1/s", "higher", []string{wServeReadMix}},
	{"replica.refreshes", "count", "higher", []string{wServeReadMix}},
	{"replica.lag_rounds", "count", "lower", []string{wServeReadMix}},

	{"scenario.compile_per_s", "1/s", "higher", []string{wSimMetro}},
	{"sim.new_per_s", "1/s", "higher", []string{wSimMetro}},
	{"sim.pricing_per_s", "1/s", "higher", []string{wSimMetro}},
	{"sim.pricing_share", "ratio", "lower", []string{wSimMetro}},
	{"sim.round_vmus", "count", "higher", []string{wSimMetro}},
	{"sim.shard_speedup", "ratio", "higher", []string{wSimMetro}},

	{"pomdp.step_per_s", "1/s", "higher", []string{wTrainPaper}},
	{"rl.policy_per_s", "1/s", "higher", []string{wTrainPaper}},
	{"rl.update_per_s", "1/s", "higher", []string{wTrainPaper}},
	{"rl.updates", "count", "higher", []string{wTrainPaper}},
	{"experiments.restart_parallelism", "ratio", "higher", []string{wTrainPaper}},
}

func (d metricDef) appliesTo(workload string) bool {
	for _, w := range d.on {
		if w == workload {
			return true
		}
	}
	return false
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one workload run: its metrics, the operations it
// attempted and failed, and every correctness problem found.
type report struct {
	workload  string
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
	samples   map[string]int
	out       io.Writer
}

func newReport(workload string, out io.Writer) *report {
	return &report{workload: workload, values: map[string]float64{}, samples: map[string]int{}, out: out}
}

// set records a metric with the number of samples behind it.
func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// check records a correctness problem when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) notef(format string, args ...any) {
	fmt.Fprintf(r.out, "  "+format+"\n", args...)
}

// finish prints every metric of the chosen set by name with its unit and
// sample count, then the result line, and returns the result. A metric
// the workload should have measured but did not, or measured as a
// non-finite number, is a benchmark bug and fails the run.
func (r *report) finish(defs []metricDef) result {
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		switch {
		case d.appliesTo(r.workload) && !ok:
			r.problems = append(r.problems, "metric "+d.name+" was not measured")
		case !d.appliesTo(r.workload):
			v = 0
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.problems = append(r.problems, fmt.Sprintf("metric %s is %v", d.name, v))
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		if d.appliesTo(r.workload) {
			fmt.Fprintf(r.out, "%s %-34s %14.6g %-6s (n=%d)\n", r.workload, d.name, v, d.unit, r.samples[d.name])
		}
	}
	if res.Attempted < 1 {
		r.problems = append(r.problems, "no operation was attempted")
		res.Attempted = 1
	}
	sort.Strings(r.problems)
	for _, p := range r.problems {
		fmt.Fprintf(r.out, "%s CHECK FAILED: %s\n", r.workload, p)
	}
	res.Correct = len(r.problems) == 0
	return res
}

func (res result) line() string {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // a map of finite floats always encodes
	}
	return string(b)
}

// checkSpec returns every way in which the benchmark description at path
// (BENCHMARK.json at the checkout root) disagrees with the workloads and
// metrics this program reports. Every run checks it, so the two cannot
// drift apart.
func checkSpec(path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{err.Error()}
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return []string{fmt.Sprintf("%s: %v", path, err)}
	}
	var problems []string
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadOrder) {
		problems = append(problems, fmt.Sprintf("workloads %v, the program runs %v", names, workloadOrder))
	}
	same := func(kind string, i int, name, unit, better string, defs []metricDef) {
		if i >= len(defs) || defs[i].name != name || defs[i].unit != unit || defs[i].better != better {
			problems = append(problems, fmt.Sprintf("%s[%d] %s/%s/%s does not match the program's", kind, i, name, unit, better))
		}
	}
	for i, m := range spec.EndToEnd {
		same("end_to_end", i, m.Name, m.Unit, m.Better, endToEnd)
		if m.Bound <= 0 || m.Bound > 0.25 {
			problems = append(problems, fmt.Sprintf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound))
		}
	}
	for i, m := range spec.PerLayer {
		same("per_layer", i, m.Name, m.Unit, m.Better, perLayer)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		problems = append(problems, fmt.Sprintf("%d end-to-end and %d per-layer metrics, the program reports %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer)))
	}
	return problems
}

// parseResult reads the result line a child run printed last.
func parseResult(stdout string) (result, error) {
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("parsing result line: %w", err)
	}
	return res, nil
}
