package main

import (
	"encoding/json"
	"math"
	"os"
	"sync/atomic"
	"testing"

	"dfence/internal/core"
	"dfence/internal/eval"
	"dfence/internal/memmodel"
	"dfence/internal/sched"
)

// slice is the small set of cells the tests run: a multi-round PSO
// repair, a PSO safety repair, a TSO linearizability cell and an RMO cell
// under the iteration budget.
var slice = []struct {
	key      string
	maxIters int
}{
	{"chase-lev/sc/pso", 0},
	{"msn-queue/safety/pso", 0},
	{"fifo-wsq/lin/tso", 0},
	{"harris-set/safety/rmo", rmoMaxIters},
}

const testK = 300

func sliceCells(t *testing.T) []cell {
	t.Helper()
	var cs compileStats
	all, err := compileCorpus([]memmodel.Model{memmodel.TSO, memmodel.PSO, memmodel.RMO}, &cs)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]cell{}
	for _, c := range all {
		byKey[c.key()] = c
	}
	var out []cell
	for _, s := range slice {
		c, ok := byKey[s.key]
		if !ok {
			t.Fatalf("no cell %s", s.key)
		}
		out = append(out, c)
	}
	return out
}

// sliceDigest synthesizes the slice and digests the results the way a
// pass does; hook, when non-nil, wraps each run's configuration.
func sliceDigest(t *testing.T, cells []cell, workers int, hook func(core.Config) core.Config) string {
	t.Helper()
	var lines []string
	for i, c := range cells {
		cfg := cellConfig(c, 7, testK, workers, slice[i].maxIters)
		if hook != nil {
			cfg = hook(cfg)
		}
		res, err := synthesize(c.prog, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.key(), err)
		}
		lines = append(lines, resultLine(c.key(), 7, res, nil))
	}
	return digest(lines)
}

func TestDigestIndependentOfWorkers(t *testing.T) {
	cells := sliceCells(t)
	if d1, d2 := sliceDigest(t, cells, 1, nil), sliceDigest(t, cells, 2, nil); d1 != d2 {
		t.Fatalf("digest at 1 worker %s, at 2 workers %s", d1, d2)
	}
}

func TestRecordingHookLeavesDigestUnchanged(t *testing.T) {
	cells := sliceCells(t)
	plain := sliceDigest(t, cells, 2, nil)
	var recorded atomic.Int64
	hooked := sliceDigest(t, cells, 2, func(cfg core.Config) core.Config {
		cfg.OptionsHook = func(_, _ int, o sched.Options) sched.Options {
			recorded.Add(1)
			return o
		}
		return cfg
	})
	if recorded.Load() == 0 {
		t.Fatal("the hook saw no execution")
	}
	if plain != hooked {
		t.Fatalf("digest %s without the hook, %s with it", plain, hooked)
	}
}

func TestReplayRecomputesRoundViolations(t *testing.T) {
	dir := t.TempDir()
	for i, c := range sliceCells(t) {
		rec := tracedSynth(c.prog, cellConfig(c, 7, testK, 2, slice[i].maxIters), dir, nil)
		if rec.err != nil {
			t.Fatalf("%s: %v", c.key(), rec.err)
		}
		acc := &layerAcc{}
		if err := acc.replay(rec); err != nil {
			t.Fatalf("%s: %v", c.key(), err)
		}
		want := 0
		for _, r := range rec.res.Rounds {
			want += r.Violations
		}
		if acc.violations != want || acc.rounds != len(rec.res.Rounds) {
			t.Fatalf("%s: replay saw %d violations over %d rounds, the run %d over %d",
				c.key(), acc.violations, acc.rounds, want, len(rec.res.Rounds))
		}
	}
}

// TestCellConfigMatchesEval pins cellConfig to eval.SynthesizeCell, the
// configuration the experiments binary runs Table 3 with.
func TestCellConfigMatchesEval(t *testing.T) {
	for _, c := range sliceCells(t)[:3] {
		got, err := synthesize(c.prog, cellConfig(c, 7, testK, 2, 0))
		if err != nil {
			t.Fatal(err)
		}
		want, err := eval.SynthesizeCell(c.bench, c.crit, c.model,
			eval.Options{ExecsPerRound: testK, Seed: 7, Workers: 2, Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		if got.Outcome != want.Outcome || got.TotalExecutions != want.Executions ||
			got.SynthesizedFences != want.Synthesized || len(got.Fences) != len(want.Fences) {
			t.Fatalf("%s: benchmark ran %v/%d execs/%d fences, eval %v/%d execs/%d fences", c.key(),
				got.Outcome, got.TotalExecutions, len(got.Fences), want.Outcome, want.Executions, len(want.Fences))
		}
	}
}

func TestReferenceCoversTable3(t *testing.T) {
	ref, err := parseReference(referenceText)
	if err != nil {
		t.Fatal(err)
	}
	var cs compileStats
	cells, err := compileCorpus([]memmodel.Model{memmodel.TSO, memmodel.PSO}, &cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 66 || len(ref) != 66 {
		t.Fatalf("%d cells and %d reference entries, want 66 each", len(cells), len(ref))
	}
	for _, c := range cells {
		if _, ok := ref[c.key()]; !ok {
			t.Errorf("no reference verdict for %s", c.key())
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables and
// BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), the benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestPassCount pins how --seconds becomes a pass count: whole nominal
// passes, at least one, and at least minTasks tasks.
func TestPassCount(t *testing.T) {
	for _, c := range []struct {
		seconds     int
		passSeconds float64
		passTasks   int
		want        int
	}{
		{30, 2.4, 66, 12}, // table3
		{30, 4, 33, 7},    // rmo
		{30, 28, 444, 1},  // fuzz
		{1, 28, 444, 1},   // shorter than a pass: still one
		{5, 4, 33, 4},     // one pass fits, but 100 tasks need four
		{1, 2.4, 66, 2},   // table3 at one second: two passes for 100 tasks
	} {
		if got := passCount(c.seconds, c.passSeconds, c.passTasks); got != c.want {
			t.Errorf("passCount(%d, %g, %d) = %d, want %d", c.seconds, c.passSeconds, c.passTasks, got, c.want)
		}
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; median 5.5.
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; got != want {
		t.Fatalf("iqrShare = %v, want %v", got, want)
	}
}

func TestHDQuantile(t *testing.T) {
	xs := []float64{11, 3, 7, 1, 9, 5, 2, 10, 4, 8, 6}
	if got := hdQuantile(xs, 0.5); math.Abs(got-6) > 1e-9 {
		t.Fatalf("Harrell-Davis median of 1..11 = %v, want 6", got)
	}
	// The weights sum to one, so a constant sample is its own quantile.
	if got := hdQuantile([]float64{4, 4, 4, 4}, 0.9); math.Abs(got-4) > 1e-9 {
		t.Fatalf("p90 of a constant sample = %v, want 4", got)
	}
	big := make([]float64, 2000)
	for i := range big {
		big[i] = float64(i)
	}
	if got := hdQuantile(big, 0.9); math.Abs(got-1799.1) > 1 {
		t.Fatalf("p90 of 0..1999 = %v, want about 1799", got)
	}
}

// TestKnownDefectsStayNarrow checks that a failure is soft only where a
// known defect explains it.
func TestKnownDefectsStayNarrow(t *testing.T) {
	converged := &core.Result{Outcome: core.OutcomeConverged}
	inconclusive := &core.Result{Outcome: core.OutcomeConverged, TotalExecutions: 10, TotalInconclusive: 1}
	for _, c := range []struct {
		name      string
		res       *core.Result
		ref       *reference
		budgetCut bool
		hard      bool
	}{
		{"disagreement", converged, &reference{class: "fences"}, false, true},
		{"known disagreement", converged, &reference{class: "fences", known: true}, false, false},
		{"inconclusive on a known cell", inconclusive, &reference{class: "none", known: true}, false, true},
		{"inconclusive on rmo", inconclusive, nil, false, true},
		{"inconclusive cut by the budget", inconclusive, nil, true, false},
	} {
		tk := synthTask(c.name, 0, c.res, nil, c.ref, c.budgetCut)
		if tk.fail == "" || tk.hard != c.hard {
			t.Errorf("%s: fail %q hard %v, want a failure with hard %v", c.name, tk.fail, tk.hard, c.hard)
		}
	}
	w := newFuzzWorkload(options{}, "")
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	templates := map[string]bool{}
	for _, p := range w.corpus {
		templates[p.Name] = p.Template
	}
	for name := range rmoUnderFenced {
		if !templates[name] {
			t.Errorf("rmoUnderFenced names %s, which is no template of the fuzz corpus", name)
		}
	}
}
