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

// The engine-determinism corpus tests: machine pooling (compiled dispatch
// + Reset reuse) is a pure performance mechanism, so every observable
// result must be bit-identical to the fresh-machine path — across the
// whole litmus and benchmark corpus, under both memory models, and under
// -race (the CI race job runs this package). The execution caches are
// pinned by recorded results instead (testdata/trial_outcomes.txt,
// testdata/golden_digests.txt).

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
// validation) is bit-identical with one worker and with four — the
// verdict memos are per worker, so their hit pattern differs — for
// representative benchmarks under all four models.
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
			for _, workers := range []int{1, 4} {
				cfg := base
				cfg.Workers = workers
				res, err := Synthesize(b.Program(), cfg)
				if err != nil {
					t.Fatalf("%s/%v workers=%d: %v", name, model, workers, err)
				}
				if res.CacheHits+res.CacheMisses == 0 && res.TotalExecutions > 0 {
					t.Errorf("%s/%v: run recorded no cache traffic", name, model)
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
