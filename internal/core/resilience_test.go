package core

import (
	"strings"
	"testing"

	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/sched"
	"dfence/internal/spec"
)

// buildLivelock builds a program whose worker spins forever, so every
// execution exhausts its step budget — the workload behind the vacuous
// convergence guard.
func buildLivelock(t *testing.T) *ir.Program {
	t.Helper()
	p := ir.NewProgram()
	if err := p.AddGlobal(&ir.Global{Name: "x", Size: 1}); err != nil {
		t.Fatal(err)
	}
	b := ir.NewFuncBuilder(p, "spin", 0)
	addr := b.GlobalAddr("x")
	head := b.NextLabel()
	b.Load(addr, "x")
	b.Br(head)
	b.Ret()
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	m := ir.NewFuncBuilder(p, "main", 0)
	tid := m.Fork("spin")
	m.Join(tid)
	m.Ret()
	if _, err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAllStepLimitIsInconclusive: a program whose executions all hit the
// step limit never sees a violation, but that is not convergence — the
// MinConclusive floor must report OutcomeInconclusive.
func TestAllStepLimitIsInconclusive(t *testing.T) {
	cfg := Config{
		Model:           memmodel.PSO,
		Criterion:       spec.MemorySafety,
		ExecsPerRound:   8,
		MaxRounds:       2,
		MaxStepsPerExec: 2000,
		Seed:            1,
	}
	res, err := Synthesize(buildLivelock(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Outcome != OutcomeInconclusive {
		t.Fatalf("all-step-limit run reported converged=%v outcome=%v: %s",
			res.Converged, res.Outcome, res.Summary())
	}
	want := cfg.ExecsPerRound * cfg.MaxRounds
	if res.TotalInconclusive != want || res.TotalExecutions != want {
		t.Errorf("counted %d inconclusive of %d executions, want %d/%d",
			res.TotalInconclusive, res.TotalExecutions, want, want)
	}
	if !strings.Contains(res.Summary(), "outcome=inconclusive") {
		t.Errorf("Summary does not surface the outcome:\n%s", res.Summary())
	}
}

// TestMinConclusiveDisabled: a negative floor restores the legacy
// semantics — a violation-free round converges no matter how little of it
// was conclusive.
func TestMinConclusiveDisabled(t *testing.T) {
	cfg := Config{
		Model:           memmodel.PSO,
		Criterion:       spec.MemorySafety,
		ExecsPerRound:   8,
		MaxRounds:       2,
		MaxStepsPerExec: 2000,
		Seed:            1,
		MinConclusive:   -1,
	}
	res, err := Synthesize(buildLivelock(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Outcome != OutcomeConverged {
		t.Fatalf("disabled floor still blocked convergence: %s", res.Summary())
	}
	if len(res.Rounds) != 1 {
		t.Errorf("legacy semantics should stop after round 1, ran %d", len(res.Rounds))
	}
}

// TestConfigSentinels pins the fill() defaults (among them the finite
// MaxItersPerExec default) and the negative sentinels of FlushProb,
// MinConclusive, and MaxModels.
func TestConfigSentinels(t *testing.T) {
	cases := []struct {
		name string
		in   Config
		want func(t *testing.T, c Config)
	}{
		{"tso default flush", Config{Model: memmodel.TSO}, func(t *testing.T, c Config) {
			if c.FlushProb != 0.1 {
				t.Errorf("FlushProb = %v, want 0.1", c.FlushProb)
			}
		}},
		{"pso default flush", Config{Model: memmodel.PSO}, func(t *testing.T, c Config) {
			if c.FlushProb != 0.5 {
				t.Errorf("FlushProb = %v, want 0.5", c.FlushProb)
			}
		}},
		{"explicit zero flush", Config{Model: memmodel.TSO, FlushProb: -1}, func(t *testing.T, c Config) {
			if c.FlushProb != 0 {
				t.Errorf("FlushProb = %v, want explicit 0", c.FlushProb)
			}
		}},
		{"explicit flush kept", Config{FlushProb: 0.25}, func(t *testing.T, c Config) {
			if c.FlushProb != 0.25 {
				t.Errorf("FlushProb = %v, want 0.25", c.FlushProb)
			}
		}},
		{"conclusive default", Config{}, func(t *testing.T, c Config) {
			if c.MinConclusive != 0.5 {
				t.Errorf("MinConclusive = %v, want 0.5", c.MinConclusive)
			}
		}},
		{"conclusive disabled", Config{MinConclusive: -1}, func(t *testing.T, c Config) {
			if c.MinConclusive != 0 {
				t.Errorf("MinConclusive = %v, want 0 (disabled)", c.MinConclusive)
			}
		}},
		{"conclusive kept", Config{MinConclusive: 0.8}, func(t *testing.T, c Config) {
			if c.MinConclusive != 0.8 {
				t.Errorf("MinConclusive = %v, want 0.8", c.MinConclusive)
			}
		}},
		{"iters default", Config{}, func(t *testing.T, c Config) {
			if c.MaxItersPerExec != itersPerStep*defaultMaxSteps {
				t.Errorf("MaxItersPerExec = %v, want %v", c.MaxItersPerExec, itersPerStep*defaultMaxSteps)
			}
		}},
		{"iters follow steps", Config{MaxStepsPerExec: 1000}, func(t *testing.T, c Config) {
			if c.MaxItersPerExec != itersPerStep*1000 {
				t.Errorf("MaxItersPerExec = %v, want %v", c.MaxItersPerExec, itersPerStep*1000)
			}
		}},
		{"iters kept", Config{MaxItersPerExec: 77}, func(t *testing.T, c Config) {
			if c.MaxItersPerExec != 77 {
				t.Errorf("MaxItersPerExec = %v, want 77", c.MaxItersPerExec)
			}
		}},
		{"models default", Config{}, func(t *testing.T, c Config) {
			if c.MaxModels != 4096 {
				t.Errorf("MaxModels = %v, want 4096", c.MaxModels)
			}
		}},
		{"models unlimited", Config{MaxModels: -1}, func(t *testing.T, c Config) {
			if c.MaxModels != 0 {
				t.Errorf("MaxModels = %v, want 0 (unlimited)", c.MaxModels)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.in
			c.fill()
			tc.want(t, c)
		})
	}
}

// ms2QueueRMO is the two-lock queue under RMO with linearizability: a
// cell whose starve-loads portfolio phases once livelocked (the other
// threads spin on the lock the stalled victim holds) and that converges
// with no fences.
func ms2QueueRMO(t *testing.T) (*ir.Program, Config) {
	t.Helper()
	b, err := progs.ByName("ms2-queue")
	if err != nil {
		t.Fatal(err)
	}
	return b.Program(), Config{
		Model:         memmodel.RMO,
		Criterion:     spec.Linearizability,
		NewSpec:       b.NewSpec(),
		ExecsPerRound: 200,
		Seed:          1,
		Workers:       2,
	}
}

// TestRMOLoadVowConclusive: with a default Config — no iteration budget
// given — every execution of ms2-queue under RMO concludes, the
// load-starving phases included.
func TestRMOLoadVowConclusive(t *testing.T) {
	prog, cfg := ms2QueueRMO(t)
	res, err := Synthesize(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeConverged || res.TotalInconclusive != 0 {
		t.Fatalf("outcome %v with %d inconclusive executions, want converged with 0:\n%s",
			res.Outcome, res.TotalInconclusive, res.Summary())
	}
}

// TestPerPhaseConclusiveFloor: cutting off one portfolio phase's
// executions leaves the round's aggregate coverage above MinConclusive
// (5 of 6 phases conclude), but that phase never looked for violations,
// so the run must not converge.
func TestPerPhaseConclusiveFloor(t *testing.T) {
	prog, cfg := ms2QueueRMO(t)
	cfg.MaxRounds = 2
	cfg.OptionsHook = func(round, index int, opts sched.Options) sched.Options {
		if opts.Portfolio == 4 {
			opts.MaxIters = 1
		}
		return opts
	}
	res, err := Synthesize(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, rd := range res.Rounds {
		if rd.Violations != 0 || rd.ConclusiveFraction() < 0.5 {
			t.Fatalf("round %d: %d violations, %.2f conclusive; the test needs violation-free rounds above the aggregate floor",
				i+1, rd.Violations, rd.ConclusiveFraction())
		}
	}
	if res.Converged || res.Outcome != OutcomeInconclusive {
		t.Fatalf("a phase with no conclusive execution still converged: outcome %v\n%s", res.Outcome, res.Summary())
	}
	if len(res.Rounds) != cfg.MaxRounds {
		t.Errorf("ran %d rounds, want all %d (no round may converge)", len(res.Rounds), cfg.MaxRounds)
	}
}
