// Command perfbench is dfence's corpus-scale benchmark. It drives the
// repository's layers from outside, through their public functions, on
// three workloads (see NOTES.md for why each exists):
//
//	table3   the paper's Table 3 corpus under TSO and PSO (66 cells a pass)
//	rmo      the same corpus under RMO with a fixed iteration budget
//	fuzz     proggen's litmus templates and seeded random programs
//
// table3's traced run also drives one pass of its cells through an
// in-process dfenced server over loopback HTTP, for the service layer.
//
// Usage (from the repository root, normally through run.sh):
//
//	perfbench --workload table3 --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics;
// with --trace 1 it switches on the existing observation hooks, replays
// the recorded inputs through each layer and reports the per-layer
// metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// processStart approximates process start: package initialization runs
// before main, so the set-up, timed from here, includes everything a
// user's first task waits for after exec.
var processStart = time.Now()

// setupRuns is how many cold starts a run times; setup_s is their median,
// so one slow start on a shared machine does not set the figure.
const setupRuns = 15

type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics an untraced run reports, in BENCHMARK.json's
// order. ok_frac and conclusive_frac are the complements of the failed
// and inconclusive shares, so that no end-to-end metric can read 0.
var endToEnd = []metricDef{
	{"tasks_per_s", "1/s"},
	{"task_p50_ms", "ms"},
	{"task_p90_ms", "ms"},
	{"ok_frac", "ratio"},
	{"conclusive_frac", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run reports. A layer a workload
// does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"task.failed_frac", "ratio"},
		{"exec.inconclusive_frac", "ratio"},
		{"sched.ns_per_exec", "ns"},
		{"sched.ns_per_step", "ns"},
		{"sched.steps_per_exec", "count"},
		{"sched.iters_per_exec", "count"},
		{"sched.spins_per_exec", "count"},
		{"sched.allocs_per_exec", "count"},
		{"sched.execs_per_s", "1/s"},
	}
	for p := 0; p < phases; p++ {
		defs = append(defs,
			metricDef{fmt.Sprintf("sched.phase%d.ns_per_exec", p), "ns"},
			metricDef{fmt.Sprintf("sched.phase%d.spins_per_exec", p), "count"},
			metricDef{fmt.Sprintf("sched.phase%d.inconclusive_frac", p), "ratio"})
	}
	return append(defs, []metricDef{
		{"synth.collect_ns_per_exec", "ns"},
		{"synth.preds_per_violation", "count"},
		{"spec.check_ns", "ns"},
		{"spec.checks_per_task", "count"},
		{"core.verdict_cache_hit_frac", "ratio"},
		{"sat.solve_ms", "ms"},
		{"sat.solve_fresh_ms", "ms"},
		{"sat.conflicts", "count"},
		{"sat.decisions", "count"},
		{"sat.propagations", "count"},
		{"sat.models", "count"},
		{"synth.clauses_per_round", "count"},
		{"synth.predicates_per_round", "count"},
		{"synth.truncated_rounds", "count"},
		{"synth.enforce_us", "us"},
		{"core.collect_ms", "ms"},
		{"core.solve_ms", "ms"},
		{"core.validate_ms", "ms"},
		{"core.minimize_ms", "ms"},
		{"core.unaccounted_ms", "ms"},
		{"core.worker_busy_frac", "ratio"},
		{"core.rounds_per_task", "count"},
		{"core.execs_per_task", "count"},
		{"core.validate_execs_per_task", "count"},
		{"core.alloc_mb_per_task", "MB"},
		{"lang.compile_us", "us"},
		{"interp.compile_us", "us"},
		{"staticanalysis.analyze_us", "us"},
		{"proggen.states_per_task", "count"},
		{"proggen.states_per_s", "1/s"},
		{"proggen.partial_frac", "ratio"},
		{"serve.submit_us", "us"},
		{"serve.queue_wait_ms", "ms"},
		{"serve.overhead_ms", "ms"},
		{"serve.memo_hit_frac", "ratio"},
		{"serve.spool_bytes_per_job", "B"},
		{"trace.overhead_frac", "ratio"},
		{"trace.dropped_events", "count"},
		{"telemetry.journal_bytes_per_task", "B"},
	}...)
}()

// phases is the scheduler portfolio's largest cycle (RMO's six phases).
const phases = 6

// minTasks is the fewest tasks a run measures, so that at least ten
// latency samples lie beyond the reported p90.
const minTasks = 100

// task is one unit of work a user waits on.
type task struct {
	name    string
	latency time.Duration
	// execs counts the executions behind the verdict (run or skipped);
	// inconclusive counts those that produced no verdict.
	execs, inconclusive int
	// fail says why the task failed ("" when it passed). hard marks a
	// failure no known defect explains; it makes the run incorrect.
	fail string
	hard bool
	// aux marks a task outside the workload's own mix (the service pass
	// of table3's traced run): a hard failure makes the run incorrect,
	// but the task counts in no figure.
	aux bool
}

// pass is one fixed block of a workload's input: a whole corpus sweep or
// a whole fuzz corpus. Runs measure a fixed number of whole passes, so
// every run sees the same mix of tasks and the same arguments always
// attempt the same tasks.
type pass struct {
	tasks  []task
	digest string
	wall   time.Duration
}

// workload is what each of the three workloads implements.
type workload interface {
	// setup builds the workload's inputs from scratch; it runs once per
	// process.
	setup() error
	// passSeconds is an untraced pass's nominal wall time, the unit in
	// which --seconds is turned into a pass count.
	passSeconds() float64
	// passTasks is the number of tasks in one pass.
	passTasks() int
	// warmUp runs untimed work that fills the caches and grows the heap
	// the timed passes then use, so that pass 0 is not a cold outlier.
	warmUp()
	// pass runs pass i untraced.
	pass(i int) (pass, error)
	// traced runs the given number of passes with the observation hooks
	// on, replays the recorded inputs layer by layer, and returns the
	// per-layer metrics plus the traced tasks.
	traced(passes int) (map[string]float64, []task, error)
	close()
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	scratch  string
	workers  int
	// setupOnly makes the process set its workload up and exit: the
	// cold start that setup_s times.
	setupOnly bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: table3, rmo or fuzz")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 15, "nominal measurement time in seconds (sets the number of whole passes)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.scratch, "scratch", ".bench_build/run", "directory for spools and journals (inside the checkout)")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "set the workload up and exit (how a run times its cold starts)")
	flag.Parse()
	o.workers = runtime.NumCPU()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	if o.setupOnly {
		w, err := newWorkload(o, "")
		if err != nil {
			return err
		}
		return w.setup()
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	dir, err := os.MkdirTemp(o.scratch, o.workload+"-")
	if err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(dir)

	w, err := newWorkload(o, dir)
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	fmt.Printf("process start to set-up done: %.6fs\n", time.Since(processStart).Seconds())

	n := passCount(o.seconds, w.passSeconds(), w.passTasks())
	if o.trace == 1 {
		layers, tasks, err := w.traced(tracedPasses(n))
		if err != nil {
			return err
		}
		metrics := map[string]float64{}
		for _, d := range perLayer {
			metrics[d.name] = layers[d.name]
		}
		attempted, failed, hard := countFailed(tasks)
		metrics["task.failed_frac"] = ratio(failed, attempted)
		metrics["exec.inconclusive_frac"] = inconclusiveFrac(tasks)
		reportFailures(tasks)
		printProvenance(o, 1, nil)
		return printResult(hard == 0, attempted, failed, perLayer, metrics)
	}

	starts, err := coldStarts(o)
	if err != nil {
		return err
	}
	w.warmUp()
	var passes []pass
	for i := 0; i < n; i++ {
		p, err := w.pass(i)
		if err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		passes = append(passes, p)
		fmt.Printf("pass %d: %d tasks in %.3fs, digest %s\n", i, len(p.tasks), p.wall.Seconds(), p.digest)
	}
	var tasks []task
	var rates []float64
	for _, p := range passes {
		tasks = append(tasks, p.tasks...)
		rates = append(rates, float64(len(p.tasks))/p.wall.Seconds())
	}
	lat := make([]float64, len(tasks))
	for i, t := range tasks {
		lat[i] = float64(t.latency) / 1e6
	}
	attempted, failed, hard := countFailed(tasks)
	metrics := map[string]float64{
		"tasks_per_s":     median(rates),
		"task_p50_ms":     hdQuantile(lat, 0.5),
		"task_p90_ms":     hdQuantile(lat, 0.9),
		"ok_frac":         1 - ratio(failed, attempted),
		"conclusive_frac": 1 - inconclusiveFrac(tasks),
		"setup_s":         median(starts),
		"peak_rss_mb":     peakRSSMB(),
	}
	reportFailures(tasks)
	fmt.Printf("digest: %s\n", passes[0].digest)
	printProvenance(o, len(passes), passSpread(passes))
	return printResult(hard == 0, attempted, failed, endToEnd, metrics)
}

func newWorkload(o options, dir string) (workload, error) {
	switch o.workload {
	case "table3":
		return newSynthWorkload(o, dir, false), nil
	case "rmo":
		return newSynthWorkload(o, dir, true), nil
	case "fuzz":
		return newFuzzWorkload(o, dir), nil
	}
	return nil, fmt.Errorf("unknown --workload %q (want table3, rmo or fuzz)", o.workload)
}

// coldStarts times setupRuns starts of this benchmark in --setup-only
// mode, one after another, each from spawn to exit: process start,
// package initialization and the workload's set-up, which is what a
// user's first task waits for.
func coldStarts(o options) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("cold start: %w", err)
	}
	out := make([]float64, setupRuns)
	for i := range out {
		cmd := exec.Command(exe, "--workload", o.workload, "--setup-only")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("cold start %d: %w", i, err)
		}
		out[i] = time.Since(start).Seconds()
	}
	return out, nil
}

// passCount is how many passes a run measures: as many nominal passes as
// fit in --seconds, at least one, and enough for minTasks tasks. It
// depends on the arguments alone, never on the clock, so two runs at one
// seed attempt the same tasks and fail the same ones however fast the
// machine runs at the time.
func passCount(seconds int, passSeconds float64, passTasks int) int {
	n := max(1, int(float64(seconds)/passSeconds))
	for n*passTasks < minTasks {
		n++
	}
	return n
}

// tracedPasses is how many passes a traced run records and replays: half
// an untraced run's, since the hooks, the replay and the untraced control
// re-runs roughly double a pass's cost.
func tracedPasses(n int) int { return max(1, n/2) }

// countFailed counts the workload's own tasks and their failures, and the
// hard failures of all tasks, auxiliary ones included.
func countFailed(tasks []task) (attempted, failed, hard int) {
	for _, t := range tasks {
		if t.fail != "" && t.hard {
			hard++
		}
		if t.aux {
			continue
		}
		attempted++
		if t.fail != "" {
			failed++
		}
	}
	return attempted, failed, hard
}

func inconclusiveFrac(tasks []task) float64 {
	var execs, inc int
	for _, t := range tasks {
		if t.aux {
			continue
		}
		execs += t.execs
		inc += t.inconclusive
	}
	return ratio(inc, execs)
}

// reportFailures lists failed tasks by reason, so the known defects are
// named in every run's output.
func reportFailures(tasks []task) {
	byReason := map[string][]string{}
	for _, t := range tasks {
		if t.fail != "" {
			kind := "known defect"
			if t.hard {
				kind = "HARD"
			}
			key := kind + ": " + t.fail
			byReason[key] = append(byReason[key], t.name)
		}
	}
	keys := make([]string, 0, len(byReason))
	for k := range byReason {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("failed (%s): %d task(s): %s\n", k, len(byReason[k]), strings.Join(dedupe(byReason[k]), ", "))
	}
}

func dedupe(names []string) []string {
	seen := map[string]int{}
	var order []string
	for _, n := range names {
		if seen[n] == 0 {
			order = append(order, n)
		}
		seen[n]++
	}
	for i, n := range order {
		if seen[n] > 1 {
			order[i] = fmt.Sprintf("%s (x%d)", n, seen[n])
		}
	}
	return order
}

// passSpread is each timing metric's spread across the run's passes: the
// interquartile range as a share of the median.
func passSpread(passes []pass) map[string]float64 {
	var rate, p50, p90 []float64
	for _, p := range passes {
		lat := make([]float64, len(p.tasks))
		for i, t := range p.tasks {
			lat[i] = float64(t.latency) / 1e6
		}
		rate = append(rate, float64(len(p.tasks))/p.wall.Seconds())
		p50 = append(p50, hdQuantile(lat, 0.5))
		p90 = append(p90, hdQuantile(lat, 0.9))
	}
	return map[string]float64{
		"tasks_per_s": iqrShare(rate),
		"task_p50_ms": iqrShare(p50),
		"task_p90_ms": iqrShare(p90),
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(correct bool, attempted, failed int, defs []metricDef, values map[string]float64) error {
	if attempted < 1 {
		return errors.New("no task ran")
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, attempted, failed, map[string]metricOut{}}
	for _, d := range defs {
		v := values[d.name]
		fmt.Printf("%-36s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
