package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"dfence/internal/core"
	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/proggen"
	"dfence/internal/sched"
	"dfence/internal/spec"
)

// Fuzz budgets: proggen.FuzzConfig's defaults, which the fuzz smoke
// campaign runs at.
const (
	fuzzExecs  = 160
	fuzzRounds = 8
	// The corpus is every litmus template plus the first fuzzRandoms
	// two-thread random programs of the fuzz smoke campaign's corpus
	// (seed fuzzCorpusSeed); one pass checks each under every weak model.
	// Enumeration cost differs by orders of magnitude between random
	// programs, so a corpus drawn per run seed would give every run a
	// different mix and different figures; the run and pass seeds drive
	// synthesis instead, as the cell seeds do on table3. Three-thread
	// random programs are left out: each spends 2-11 s enumerating, mostly
	// into the state budget, so a handful would set a whole run's figures.
	// The three-thread templates stay.
	fuzzRandoms    = 40
	fuzzCorpusSeed = 1
	// fuzzCorpusLen entries of proggen.Corpus hold every template (one
	// in four entries while templates last) and enough random programs.
	fuzzCorpusLen = 1000
)

var fuzzModels = []memmodel.Model{memmodel.TSO, memmodel.PSO, memmodel.RMO}

// rmoUnderFenced lists the templates that synthesis can leave
// under-fenced under RMO today: the shapes with a load-load edge the
// variant leaves unfenced (the two-thread message-passing shape and the
// three-thread ones). Exposing that edge's reordering needs the
// load-deferring portfolio phases 4-5, which rarely conclude, so at some
// seeds the residual goes unseen twice (the known RMO defect).
// Under-fencing of any other template, or under TSO or PSO, is a hard
// failure, as it is a divergence for proggen.Fuzz.
var rmoUnderFenced = map[string]bool{
	"rmo2-ld.ld_st.st-bare":          true,
	"rmo2-st.st_ld.ld-bare":          true,
	"rmo2-st.st_ld.ld-partial":       true,
	"rmo3-ld.ld_st.ld_st.st-bare":    true,
	"rmo3-ld.ld_st.st_ld.st-bare":    true,
	"rmo3-ld.ld_st.st_st.st-bare":    true,
	"rmo3-ld.st_ld.ld_st.st-bare":    true,
	"rmo3-ld.st_ld.ld_st.st-partial": true,
	"rmo3-st.ld_st.st_ld.ld-bare":    true,
	"rmo3-st.ld_st.st_ld.ld-partial": true,
	"rmo3-st.st_ld.ld_st.ld-bare":    true,
	"rmo3-st.st_ld.ld_st.ld-partial": true,
	"rmo3-st.st_ld.ld_st.st-bare":    true,
	"rmo3-st.st_ld.ld_st.st-partial": true,
	"rmo3-st.st_ld.st_ld.ld-bare":    true,
	"rmo3-st.st_ld.st_ld.ld-partial": true,
	"rmo3-st.st_st.st_ld.ld-bare":    true,
	"rmo3-st.st_st.st_ld.ld-partial": true,
}

// fuzzFlushProbs is proggen's flush-probability cycle for synthesis.
var fuzzFlushProbs = []float64{0.1, 0.3, 0.6}

// fuzzWorkload checks proggen's corpus differentially on one thread, one
// (program, weak model) pair per task, assembled from the package's
// public pieces the way proggen.Fuzz checks a program: exhaustive
// enumeration, static analysis, synthesis at the fuzz budget (one
// escalated retry), then enumeration of the synthesized program. Its
// reference is enumeration, which is independent of synthesis.
type fuzzWorkload struct {
	o      options
	dir    string
	corpus []*proggen.Prog
	comp   compileStats
}

func newFuzzWorkload(o options, dir string) *fuzzWorkload {
	return &fuzzWorkload{o: o, dir: dir}
}

func (w *fuzzWorkload) setup() error {
	var corpus []*proggen.Prog
	randoms := 0
	for _, p := range proggen.Corpus(fuzzCorpusSeed, fuzzCorpusLen) {
		switch {
		case p.Template:
			corpus = append(corpus, p)
		case randoms < fuzzRandoms && len(p.Threads) <= 2:
			corpus = append(corpus, p)
			randoms++
		}
	}
	var cs compileStats
	for _, p := range corpus {
		start := time.Now()
		if _, err := p.Compile(); err != nil {
			return fmt.Errorf("compile %s: %w", p.Name, err)
		}
		cs.add(time.Since(start), 0)
	}
	w.corpus, w.comp = corpus, cs
	return nil
}

func (w *fuzzWorkload) close() {}

// passSeconds is a pass's wall time on a 2-CPU Xeon VM, rounded up (27 s
// for the 444 checks), so a run of 30 s or less measures one pass.
func (w *fuzzWorkload) passSeconds() float64 { return 28 }

func (w *fuzzWorkload) passTasks() int { return len(w.corpus) * len(fuzzModels) }

// warmUp does nothing: a pass is hundreds of small checks, so its first
// ones weigh little.
func (w *fuzzWorkload) warmUp() {}

// prepared is one corpus program ready for its model checks.
type prepared struct {
	p    *proggen.Prog
	prog *ir.Program
	esc  *proggen.EnumResult // SC baseline
	seed int64
}

// prepare compiles corpus entry idx, upgrades a random program with a
// forbidden-outcome assert as proggen.Fuzz does, and enumerates its SC
// baseline. It runs once per program and pass, outside the per-model task
// timings. Synthesis seeds derive from the pass seed as proggen.Fuzz's
// derive from its campaign seed.
func (w *fuzzWorkload) prepare(idx int, passSeed int64, acc *layerAcc) (*prepared, error) {
	p := w.corpus[idx]
	compile := func(p *proggen.Prog) (*ir.Program, error) {
		start := time.Now()
		prog, err := p.Compile()
		acc.langNS += int64(time.Since(start))
		acc.langN++
		return prog, err
	}
	prog, err := compile(p)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", p.Name, err)
	}
	if !p.Template {
		if q := inject(p, prog); q != p {
			p = q
			if prog, err = compile(p); err != nil {
				return nil, fmt.Errorf("compile %s: %w", p.Name, err)
			}
		}
	}
	return &prepared{
		p: p, prog: prog,
		esc:  proggen.Enumerate(prog, memmodel.SC, proggen.EnumOptions{}),
		seed: proggen.ProgSeed(passSeed, idx),
	}, nil
}

// inject asserts the negation of the smallest outcome some weak model
// reaches and SC cannot, making the program a synthesis target that is
// SC-clean by construction (proggen.Fuzz's injection step).
func inject(p *proggen.Prog, prog *ir.Program) *proggen.Prog {
	esc := proggen.Enumerate(prog, memmodel.SC, proggen.EnumOptions{})
	if !esc.Complete {
		return p
	}
	for _, m := range fuzzModels {
		em := proggen.Enumerate(prog, m, proggen.EnumOptions{})
		if !em.Complete {
			continue
		}
		var extra []string
		for o := range em.Outcomes {
			if !esc.Outcomes[o] {
				extra = append(extra, o)
			}
		}
		if len(extra) == 0 {
			continue
		}
		sort.Strings(extra)
		conds, ok := outcomeConds(p.Observe, extra[0])
		if !ok {
			continue
		}
		q := p.Clone()
		q.Forbidden = conds
		q.Name = p.Name + "+assert"
		return q
	}
	return p
}

// outcomeConds turns an outcome string ("v1,v2|exit=0") back into the
// per-global equalities it denotes.
func outcomeConds(observe []string, outcome string) ([]proggen.Cond, bool) {
	body, _, ok := strings.Cut(outcome, "|")
	if !ok {
		return nil, false
	}
	var vals []string
	if body != "" {
		vals = strings.Split(body, ",")
	}
	if len(vals) != len(observe) {
		return nil, false
	}
	conds := make([]proggen.Cond, len(vals))
	for i, v := range vals {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, false
		}
		conds[i] = proggen.Cond{Global: observe[i], Equals: n}
	}
	return conds, true
}

// fuzzConfig is proggen's synthesis configuration for a fuzz check:
// memory safety, one worker, and flush probabilities diversified across
// the round except where a portfolio phase sets its own.
func fuzzConfig(model memmodel.Model, seed int64, execs, rounds int) core.Config {
	return core.Config{
		Model:           model,
		Criterion:       spec.MemorySafety,
		ExecsPerRound:   execs,
		MaxRounds:       rounds,
		FlushProb:       0.3,
		MaxStepsPerExec: 20000,
		Seed:            seed,
		Workers:         1,
		OptionsHook: func(_, index int, o sched.Options) sched.Options {
			if o.FlushProb == 0.3 {
				o.FlushProb = fuzzFlushProbs[index%len(fuzzFlushProbs)]
			}
			return o
		},
	}
}

// synthFunc runs one synthesis of a task; the traced run swaps in a
// recording version.
type synthFunc func(prog *ir.Program, cfg core.Config) (*core.Result, error)

// check runs one (program, model) task, accounting its enumeration and
// static analysis in acc.
func (w *fuzzWorkload) check(pp *prepared, model memmodel.Model, run synthFunc, acc *layerAcc) (task, string) {
	start := time.Now()
	name := fmt.Sprintf("%s/%s", pp.p.Name, strings.ToLower(model.String()))
	t := task{name: name}
	var line strings.Builder
	fmt.Fprintf(&line, "%s seed=%d", name, pp.seed)
	enumerate := func(prog *ir.Program) *proggen.EnumResult {
		start := time.Now()
		r := proggen.Enumerate(prog, model, proggen.EnumOptions{})
		acc.enumNS += int64(time.Since(start))
		acc.states += r.States
		acc.enums++
		if !r.Complete {
			acc.partial++
		}
		fmt.Fprintf(&line, " enum=%d/%v/%d", r.States, r.Complete, len(r.Violations))
		return r
	}
	fail := func(hard bool, format string, args ...any) {
		if t.fail == "" {
			t.fail, t.hard = fmt.Sprintf(format, args...), hard
		}
	}

	em := enumerate(pp.prog)
	esc := pp.esc
	if esc.Complete && esc.HasViolation() {
		fail(true, "sc-violation")
	}
	if esc.Complete && em.Complete {
		for o := range esc.Outcomes {
			if !em.Outcomes[o] {
				fail(true, "sc-outcome-escape")
			}
		}
	}
	st, err := acc.analyze(pp.prog, model)
	if err != nil {
		fail(true, "analyze-error")
	} else if st.Robust() && esc.Complete && em.Complete {
		if em.HasViolation() {
			fail(true, "unsound-robust")
		}
		for o := range em.Outcomes {
			if !esc.Outcomes[o] {
				fail(true, "unsound-robust")
			}
		}
	}

	// Synthesis, held to the enumerator: never unfixable, and a converged
	// repair must leave no enumerable violation. A thin first pass earns
	// one retry at four times the budget, as in proggen.Fuzz.
	verdict := func(res *core.Result) string {
		switch res.Outcome {
		case core.OutcomeUnfixable:
			return "unfixable"
		case core.OutcomeConverged:
			fenced := em
			if len(res.Fences) > 0 {
				fenced = enumerate(res.Program)
			}
			if fenced.Complete && fenced.HasViolation() {
				return "under-fenced"
			}
		}
		return ""
	}
	attempt := func(execs, rounds int) (*core.Result, string) {
		res, err := run(pp.prog, fuzzConfig(model, pp.seed, execs, rounds))
		fmt.Fprintf(&line, " | %s", resultLine("", pp.seed, res, err))
		if err != nil {
			fail(true, "synth-error: %v", err)
			return nil, "error"
		}
		t.execs += res.TotalExecutions
		t.inconclusive += res.TotalInconclusive
		for _, r := range res.Rounds {
			t.execs += r.Skipped
		}
		return res, verdict(res)
	}
	res, v := attempt(fuzzExecs, fuzzRounds)
	if v != "" && v != "error" {
		res, v = attempt(4*fuzzExecs, fuzzRounds+4)
	}
	switch {
	case v == "error":
	case v == "unfixable":
		fail(true, "unfixable")
	case v == "under-fenced" && model == memmodel.RMO && rmoUnderFenced[pp.p.Name]:
		fail(false, "insufficient-fences under RMO")
	case v == "under-fenced" && pp.p.Template:
		fail(true, "insufficient-fences")
	case v == "under-fenced":
		fail(false, "sampling miss")
	case res.Outcome != core.OutcomeConverged:
		fail(false, "outcome %v", res.Outcome)
	case t.inconclusive > 0:
		fail(false, "verdict rests on inconclusive executions")
	}
	t.latency = time.Since(start)
	return t, line.String()
}

func (w *fuzzWorkload) pass(i int) (pass, error) {
	var p pass
	var lines []string
	acc := &layerAcc{} // layer timings are reported by traced runs only
	start := time.Now()
	for idx := range w.corpus {
		pp, err := w.prepare(idx, w.o.seed+int64(i)*passStride, acc)
		if err != nil {
			return p, err
		}
		for _, m := range fuzzModels {
			t, line := w.check(pp, m, synthesize, acc)
			p.tasks = append(p.tasks, t)
			lines = append(lines, line)
		}
	}
	p.wall = time.Since(start)
	p.digest = digest(lines)
	return p, nil
}

func (w *fuzzWorkload) traced(passes int) (map[string]float64, []task, error) {
	acc := &layerAcc{}
	acc.addCompile(w.comp)
	var tasks []task
	for i := 0; i < passes; i++ {
		for idx := range w.corpus {
			pp, err := w.prepare(idx, w.o.seed+int64(i)*passStride, acc)
			if err != nil {
				return nil, nil, err
			}
			for _, m := range fuzzModels {
				var replayErr error
				run := func(prog *ir.Program, cfg core.Config) (*core.Result, error) {
					rec, rerr := acc.traceSynth(len(tasks), prog, cfg, w.dir)
					if rerr != nil && replayErr == nil {
						replayErr = rerr
					}
					return rec.res, rec.err
				}
				t, _ := w.check(pp, m, run, acc)
				if replayErr != nil {
					t.fail, t.hard = "replay: "+replayErr.Error(), true
				}
				tasks = append(tasks, t)
			}
		}
	}
	acc.runControls(tasks)
	return acc.metrics(), tasks, nil
}
