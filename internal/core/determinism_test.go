package core

import (
	"context"
	"fmt"
	"testing"

	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/litmus"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/sched"
	"dfence/internal/spec"
)

// The engine-determinism corpus tests: machine pooling (PR 4's compiled
// dispatch + Reset reuse) and the execution caches are pure performance
// mechanisms, so every observable result must be bit-identical to the
// fresh-machine, cache-free paths — across the whole litmus and benchmark
// corpus, under both memory models, and under -race (the CI race job runs
// this package).

// execKey summarizes one execution for bit-identity comparison.
func execKey(res *interp.Result) string {
	viol := ""
	if res.Violation != nil {
		viol = res.Violation.Error()
	}
	return fmt.Sprintf("steps=%d out=%v hist=%d/%s viol=%q limit=%v",
		res.Steps, res.Output, len(res.History), string(appendHistoryKey(nil, res.History)), viol, res.StepLimitHit)
}

// corpusPrograms returns every litmus test and benchmark program with a
// short name.
func corpusPrograms(t *testing.T) map[string]*ir.Program {
	t.Helper()
	out := make(map[string]*ir.Program)
	for _, lt := range litmus.All() {
		out["litmus/"+lt.Name] = lt.Program()
	}
	for _, b := range progs.All() {
		out["bench/"+b.Name] = b.Program()
	}
	return out
}

// TestPooledBatchMatchesFreshRuns: for every corpus program and both
// models, the pooled batch engine (serial and parallel) reproduces the
// per-execution results of fresh one-shot sched.Run calls exactly.
func TestPooledBatchMatchesFreshRuns(t *testing.T) {
	const n = 12
	for name, prog := range corpusPrograms(t) {
		for _, model := range []memmodel.Model{memmodel.TSO, memmodel.PSO} {
			optsFor := func(i int) sched.Options {
				fp := 0.5
				if model == memmodel.TSO {
					fp = 0.1
				}
				return sched.Options{Seed: int64(100 + i), FlushProb: fp, MaxSteps: 100000, PORWindow: 64}
			}
			fresh := make([]string, n)
			for i := 0; i < n; i++ {
				fresh[i] = execKey(sched.Run(prog, model, nil, optsFor(i)))
			}
			for _, workers := range []int{1, 4} {
				got := sched.RunBatch(context.Background(), prog, model, n, workers, nil, optsFor,
					func(i, _ int, _ interp.Observer, res *interp.Result, err *sched.ExecError) (string, bool) {
						if err != nil {
							t.Errorf("%s/%v: exec %d panicked: %v", name, model, i, err)
							return "", false
						}
						return execKey(res), false
					})
				for i := range fresh {
					if got[i] != fresh[i] {
						t.Fatalf("%s/%v workers=%d exec %d: pooled diverged from fresh\npooled: %s\nfresh:  %s",
							name, model, workers, i, got[i], fresh[i])
					}
				}
			}
		}
	}
}

// resultKey summarizes a synthesis result's observable outcome (cache
// counters and wall-clock fields excluded by construction).
func resultKey(res *Result) string {
	s := fmt.Sprintf("outcome=%v fences=%v synth=%d redundant=%d empty=%d execs=%d",
		res.Outcome, res.Fences, res.SynthesizedFences, res.Redundant, res.EmptyRepairs, res.TotalExecutions)
	for _, r := range res.Rounds {
		s += fmt.Sprintf(" [execs=%d viol=%d inc=%d clauses=%d preds=%d ins=%v]",
			r.Executions, r.Violations, r.Inconclusive, r.DistinctClauses, r.Predicates, r.Inserted)
	}
	return s
}

// TestSynthesizeCacheAndWorkerDeterminism: full synthesis (with fence
// validation) is bit-identical between the serial cache-free configuration
// and the parallel cache-enabled one, for representative benchmarks under
// all four models.
func TestSynthesizeCacheAndWorkerDeterminism(t *testing.T) {
	subjects := []string{"chase-lev", "cilk-the", "ms2-queue", "lifo-iwsq"}
	models := []memmodel.Model{memmodel.SC, memmodel.TSO, memmodel.PSO, memmodel.RMO}
	for _, name := range subjects {
		b, err := progs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range models {
			crit := spec.SeqConsistency
			if b.SkipSeqCheck {
				crit = spec.MemorySafety
			}
			// FlushProb is set explicitly (the model-recommended values)
			// because a zero flush probability under RMO produces the
			// pathological crawling schedules ExecTimeout exists for — see
			// the Config docs.
			fp := 0.5
			if model == memmodel.TSO {
				fp = 0.1
			}
			base := Config{
				Model:            model,
				Criterion:        crit,
				NewSpec:          b.NewSpec(),
				CheckGarbage:     b.CheckGarbage,
				RelaxStealAborts: b.RelaxStealAborts,
				ExecsPerRound:    150,
				MaxRounds:        5,
				FlushProb:        fp,
				Seed:             7,
				ValidateFences:   true,
				// Deterministic budget on scheduler-loop iterations. The RMO
				// portfolio's load-starving phases can crawl on ms2-queue —
				// deferral-loop spins make no machine steps, so
				// MaxStepsPerExec never trips, and ExecTimeout is
				// wall-clock-dependent, which a bit-identity test cannot
				// tolerate. The budget cuts the spinners identically in
				// every configuration (over-budget runs are judged
				// inconclusive) while staying far above what any healthy
				// execution in this corpus uses.
				MaxItersPerExec: 200_000,
			}
			var keys []string
			for _, mode := range []struct {
				workers int
				nocache bool
			}{{1, true}, {1, false}, {4, false}} {
				cfg := base
				cfg.Workers = mode.workers
				cfg.NoExecCache = mode.nocache
				res, err := Synthesize(b.Program(), cfg)
				if err != nil {
					t.Fatalf("%s/%v workers=%d nocache=%v: %v", name, model, mode.workers, mode.nocache, err)
				}
				if !mode.nocache && res.CacheHits+res.CacheMisses == 0 && res.TotalExecutions > 0 {
					t.Errorf("%s/%v: cache-enabled run recorded no cache traffic", name, model)
				}
				keys = append(keys, resultKey(res))
			}
			for i := 1; i < len(keys); i++ {
				if keys[i] != keys[0] {
					t.Fatalf("%s/%v: configuration %d diverged\nbase: %s\ngot:  %s", name, model, i, keys[0], keys[i])
				}
			}
		}
	}
}

// TestFindRedundantCacheDeterminism: the cached redundancy scan returns
// the identical label set as the uncached scan on a program that carries
// synthesized fences.
func TestFindRedundantCacheDeterminism(t *testing.T) {
	b, err := progs.ByName("chase-lev")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Model:         memmodel.PSO,
		Criterion:     spec.SeqConsistency,
		NewSpec:       b.NewSpec(),
		ExecsPerRound: 150,
		MaxRounds:     5,
		Seed:          7,
	}
	res, err := Synthesize(b.Program(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fences) == 0 {
		t.Skip("no fences synthesized; redundancy scan is vacuous")
	}
	var got [][]ir.Label
	for _, nocache := range []bool{false, true} {
		c := cfg
		c.NoExecCache = nocache
		labels, err := FindRedundantFences(res.Program, c, 150)
		if err != nil {
			t.Fatalf("nocache=%v: %v", nocache, err)
		}
		got = append(got, labels)
	}
	if fmt.Sprint(got[0]) != fmt.Sprint(got[1]) {
		t.Fatalf("redundancy scan diverged: cached=%v uncached=%v", got[0], got[1])
	}
}
