package main

// The traced run. Each synthesis runs with the existing observation hooks
// on (Config.Tracer, Metrics, a journal Sink, and an OptionsHook that
// records every round execution's sched.Options unchanged). Afterwards
// the recorded inputs are replayed through each layer's public functions:
// the engine with a nil observer, the engine with a synth.Collector plus
// spec.Checker verdicts, synth.Formula and the SAT solver on the round's
// disjunctions, and synth.Enforce on the chosen repair. The replay must
// recompute every round's counters exactly; a mismatch fails the task.

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"dfence/internal/core"
	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/sat"
	"dfence/internal/sched"
	"dfence/internal/spec"
	"dfence/internal/staticanalysis"
	"dfence/internal/synth"
	"dfence/internal/telemetry"
	"dfence/internal/trace"
)

// recording is one traced synthesis and everything the replay needs.
type recording struct {
	prog   *ir.Program // the input program (synthesis works on a clone)
	cfg    core.Config
	res    *core.Result
	err    error
	wall   time.Duration
	opts   map[[2]int]sched.Options // (round, index) -> options as run
	events []telemetry.Event        // the journal, read back strictly
	jbytes int64
	trace  *trace.Data
}

// tracedSynth runs one synthesis with every observation hook on. The
// journal is written to dir and read back with the strict reader.
func tracedSynth(prog *ir.Program, cfg core.Config, dir string, metrics *telemetry.Metrics) *recording {
	rec := &recording{prog: prog, opts: map[[2]int]sched.Options{}}
	var mu sync.Mutex
	next := cfg.OptionsHook
	cfg.OptionsHook = func(round, index int, o sched.Options) sched.Options {
		if next != nil {
			o = next(round, index, o)
		}
		mu.Lock()
		rec.opts[[2]int{round, index}] = o
		mu.Unlock()
		return o
	}
	cfg.Tracer = trace.New(trace.Options{Lanes: cfg.Workers})
	cfg.Metrics = metrics
	path := filepath.Join(dir, "journal.jsonl")
	j, err := telemetry.CreateJournal(path)
	if err != nil {
		rec.err = err
		return rec
	}
	cfg.Sink = j
	telemetry.Emit(j, telemetry.RunStart{
		Model: cfg.Model.String(), Criterion: cfg.Criterion.String(), Seed: cfg.Seed,
		Execs: cfg.ExecsPerRound, MaxRounds: cfg.MaxRounds, FlushProb: cfg.FlushProb,
		Workers: cfg.Workers, MaxIters: cfg.MaxItersPerExec, Validate: cfg.ValidateFences,
	})
	start := time.Now()
	rec.res, rec.err = synthesize(prog, cfg)
	rec.wall = time.Since(start)
	rec.trace = cfg.Tracer.Snapshot()
	rec.cfg = cfg
	if cerr := j.Close(); cerr != nil && rec.err == nil {
		rec.err = fmt.Errorf("journal: %w", cerr)
	}
	if rec.err != nil {
		return rec
	}
	if fi, err := os.Stat(path); err == nil {
		rec.jbytes = fi.Size()
	}
	rec.events, rec.err = telemetry.ReadJournalFile(path)
	return rec
}

// phaseAcc accumulates one portfolio phase of the engine replay.
type phaseAcc struct {
	execs, inconclusive int
	ns, spins           int64
}

// layerAcc accumulates the per-layer figures of a traced run.
type layerAcc struct {
	tasks int

	// engine replay, nil observer
	execs, inconclusive        int
	execNS, steps, iters, spin int64
	allocs                     uint64
	replayWall                 time.Duration
	phase                      [phases]phaseAcc

	// collector replay
	collectNS       int64
	collectExecs    int
	violations      int
	violationPreds  int
	checkNS         int64
	checks          int
	cacheHits, miss int

	// solve and enforcement
	solveNS, solveFreshNS                     int64
	solves                                    int
	conflicts, decisions, propagations, model int64
	rounds, clauses, predicates, truncated    int
	enforceNS                                 int64
	enforces                                  int

	// coordinator spans (µs) and worker time (ns)
	tracedWall                            time.Duration
	collectUS, solveUS, validateUS, minUS float64
	busyNS, busyCap                       float64
	roundsTotal, execsTotal, validExecs   int
	dropped                               int64
	jbytes                                int64
	synths                                int

	// untraced re-runs of the traced syntheses
	registry    *telemetry.Metrics
	controls    []controlJob
	controlWall time.Duration
	controlMB   float64

	// front end and static analysis
	langNS, interpNS int64
	langN, interpN   int
	analyzeNS        int64
	analyzeN         int

	// explorer (fuzz)
	states, enums, partial int
	enumNS                 int64
}

// addCompile folds set-up compile times into the front-end figures.
func (a *layerAcc) addCompile(s compileStats) {
	a.langNS += int64(s.lang)
	a.interpNS += int64(s.interp)
	a.langN += s.n
	a.interpN += s.n
}

// observe folds one traced synthesis's artifacts into the coordinator,
// observability and cache figures.
func (a *layerAcc) observe(rec *recording) {
	a.synths++
	a.tracedWall += rec.wall
	a.jbytes += rec.jbytes
	res := rec.res
	a.roundsTotal += len(res.Rounds)
	a.execsTotal += res.TotalExecutions
	a.cacheHits += res.CacheHits
	a.miss += res.CacheMisses
	var spans float64
	for _, ev := range rec.trace.TraceEvents {
		if ev.Ph != "X" || ev.Tid != 0 {
			continue
		}
		switch ev.Name {
		case "collect":
			a.collectUS += ev.Dur
			spans += ev.Dur
		case "solve":
			a.solveUS += ev.Dur
		case "validate":
			a.validateUS += ev.Dur
			spans += ev.Dur
		case "minimize":
			a.minUS += ev.Dur
		}
	}
	var laneExecs int64
	for _, ln := range rec.trace.Other.Lanes {
		a.dropped += ln.Dropped
		if ln.Lane == 0 {
			continue
		}
		for _, p := range ln.Portfolio {
			a.busyNS += float64(p.WallNS)
			laneExecs += p.Execs
		}
	}
	// Worker lanes are busy only while a batch runs: during collect and
	// validate spans.
	a.busyCap += spans * 1e3 * float64(rec.cfg.Workers)
	a.validExecs += int(laneExecs) - res.TotalExecutions
}

// analyze times the static delay-set analysis of prog under model.
func (a *layerAcc) analyze(prog *ir.Program, model memmodel.Model) (*staticanalysis.Result, error) {
	start := time.Now()
	r, err := staticanalysis.Analyze(prog, model)
	a.analyzeNS += int64(time.Since(start))
	a.analyzeN++
	return r, err
}

// replay re-executes every round of rec through the layers and checks
// that it reproduces the recorded round counters, journaled clauses,
// chosen repairs and inserted fences.
func (a *layerAcc) replay(rec *recording) error {
	res, cfg := rec.res, rec.cfg
	solved := journaledRounds(rec.events)
	budget := sat.Budget{MaxModels: 4096}
	if cfg.MaxModels != 0 {
		budget.MaxModels = max(cfg.MaxModels, 0)
	}
	persist := synth.NewFormula()
	var before []synth.InsertedFence
	for r, round := range res.Rounds {
		if round.Skipped > 0 {
			return fmt.Errorf("round %d skipped %d executions; nothing to replay", r+1, round.Skipped)
		}
		prog := rec.prog.Clone()
		if _, err := synth.InsertFences(prog, before); err != nil {
			return fmt.Errorf("round %d: rebuild program: %w", r+1, err)
		}
		start := time.Now()
		comp := interp.Compile(prog)
		a.interpNS += int64(time.Since(start))
		a.interpN++

		opts := make([]sched.Options, round.Executions)
		for i := range opts {
			o, ok := rec.opts[[2]int{r, i}]
			if !ok {
				return fmt.Errorf("round %d: no recorded options for execution %d", r+1, i)
			}
			o.Tracer = nil
			opts[i] = o
		}
		a.replayEngine(comp, cfg, opts)
		disj, violations, inconclusive := a.replayCollect(comp, cfg, opts)
		if violations != round.Violations || inconclusive != round.Inconclusive {
			return fmt.Errorf("round %d: replay found %d violations and %d inconclusive, the run %d and %d",
				r+1, violations, inconclusive, round.Violations, round.Inconclusive)
		}

		persist.BeginRound()
		fresh := synth.NewFormula()
		seen := map[string]bool{}
		for _, d := range disj {
			if err := persist.AddExecution(d); err != nil {
				return err
			}
			if err := fresh.AddExecution(d); err != nil {
				return err
			}
			seen[predKey(d)] = true
		}
		a.rounds++
		a.clauses += persist.NumClauses()
		a.predicates += persist.NumPredicates()
		if persist.NumClauses() != round.DistinctClauses || persist.NumPredicates() != round.Predicates {
			return fmt.Errorf("round %d: replay built %d clauses over %d predicates, the run %d over %d",
				r+1, persist.NumClauses(), persist.NumPredicates(), round.DistinctClauses, round.Predicates)
		}
		j := solved[r+1]
		if j == nil {
			j = &journalRound{}
		}
		if !sameKeys(seen, j.clauses) {
			return fmt.Errorf("round %d: replayed clauses differ from the journal's", r+1)
		}
		if round.Violations > 0 && !persist.Empty() {
			var st, stFresh sat.Stats
			start = time.Now()
			sols, truncated := persist.MinimalSolutionsStats(budget, &st)
			a.solveNS += int64(time.Since(start))
			start = time.Now()
			fresh.MinimalSolutionsStats(budget, &stFresh)
			a.solveFreshNS += int64(time.Since(start))
			a.solves++
			a.conflicts += st.Conflicts
			a.decisions += st.Decisions
			a.propagations += st.Propagations
			a.model += int64(st.Models)
			if truncated {
				a.truncated++
			}
			chosen := sols[0]
			if predKey(chosen) != j.chosen {
				return fmt.Errorf("round %d: replay chose %v, the journal %s", r+1, chosen, j.chosen)
			}
			start = time.Now()
			fences, err := synth.Enforce(prog, cfg.Model, chosen)
			a.enforceNS += int64(time.Since(start))
			a.enforces++
			if err != nil {
				return fmt.Errorf("round %d: enforce: %w", r+1, err)
			}
			if fenceKey(fences) != fenceKey(round.Inserted) {
				return fmt.Errorf("round %d: replay inserted %v, the run %v", r+1, fences, round.Inserted)
			}
		}
		before = append(before, round.Inserted...)
	}
	a.tasks++
	return nil
}

// replayEngine times every execution with a nil observer: the engine
// alone (scheduler, interpreter, memory model).
func (a *layerAcc) replayEngine(comp *interp.Compiled, cfg core.Config, opts []sched.Options) {
	type out struct {
		ns                  int64
		steps, iters, spins int
		inconclusive        bool
	}
	starts := make([]time.Time, len(opts))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	outs := sched.RunBatchCompiled(context.Background(), comp, cfg.Model, len(opts), cfg.Workers, nil,
		func(i int) sched.Options { starts[i] = time.Now(); return opts[i] },
		func(i, _ int, _ interp.Observer, res *interp.Result, err *sched.ExecError) (out, bool) {
			o := out{ns: int64(time.Since(starts[i]))}
			if err != nil {
				o.inconclusive = true
				return o, false
			}
			o.steps, o.iters, o.spins = res.Steps, res.SchedIters, res.SchedSpins
			o.inconclusive = res.StepLimitHit || res.TimedOut
			return o, false
		})
	a.replayWall += time.Since(start)
	runtime.ReadMemStats(&after)
	a.allocs += after.Mallocs - before.Mallocs
	for i, o := range outs {
		a.execs++
		a.execNS += o.ns
		a.steps += int64(o.steps)
		a.iters += int64(o.iters)
		a.spin += int64(o.spins)
		p := &a.phase[int(opts[i].Portfolio)%phases]
		p.execs++
		p.ns += o.ns
		p.spins += int64(o.spins)
		if o.inconclusive {
			a.inconclusive++
			p.inconclusive++
		}
	}
}

// replayCollect re-runs the executions with a synth.Collector and judges
// each with a spec.Checker, memoizing verdicts per worker by history as
// the synthesis engine does. It returns the violating executions' repair
// disjunctions in execution order plus the round's counters.
func (a *layerAcc) replayCollect(comp *interp.Compiled, cfg core.Config, opts []sched.Options) (disj [][]synth.Predicate, violations, inconclusive int) {
	const (
		clean = iota
		violated
		noVerdict
	)
	type out struct {
		ns, checkNS int64
		checked     bool
		verdict     int
		disj        []synth.Predicate
	}
	workers := cfg.Workers
	checkers := make([]spec.Checker, workers)
	memos := make([]map[string]bool, workers)
	keys := make([][]byte, workers)
	for w := range memos {
		memos[w] = map[string]bool{}
	}
	starts := make([]time.Time, len(opts))
	outs := sched.RunBatchCompiled(context.Background(), comp, cfg.Model, len(opts), workers,
		func(int) interp.Observer { return synth.NewCollector(cfg.Model) },
		func(i int) sched.Options { starts[i] = time.Now(); return opts[i] },
		func(i, w int, obs interp.Observer, res *interp.Result, err *sched.ExecError) (out, bool) {
			coll := obs.(*synth.Collector)
			o := out{ns: int64(time.Since(starts[i]))}
			if err != nil || res.StepLimitHit || res.TimedOut {
				coll.Reset()
				o.verdict = noVerdict
				return o, false
			}
			if res.Violation == nil {
				keys[w] = appendHistoryKey(keys[w][:0], res.History)
				ok, hit := memos[w][string(keys[w])]
				if !hit {
					start := time.Now()
					ck := &checkers[w]
					ops := ck.CompleteOps(res.History)
					if cfg.RelaxStealAborts {
						ops = ck.RelaxStealAborts(ops)
					}
					ok = ck.Check(cfg.Criterion, ops, cfg.NewSpec, cfg.CheckGarbage)
					o.checkNS, o.checked = int64(time.Since(start)), true
					memos[w][string(keys[w])] = ok
				}
				if ok {
					coll.Reset()
					return o, false
				}
			}
			o.verdict = violated
			o.disj = coll.TakeDisjunction()
			return o, false
		})
	for _, o := range outs {
		a.collectNS += o.ns
		a.collectExecs++
		if o.checked {
			a.checkNS += o.checkNS
			a.checks++
		}
		switch o.verdict {
		case noVerdict:
			inconclusive++
		case violated:
			violations++
			a.violations++
			a.violationPreds += len(o.disj)
			if len(o.disj) > 0 {
				disj = append(disj, o.disj)
			}
		}
	}
	return disj, violations, inconclusive
}

// appendHistoryKey serializes a history injectively, so two executions
// share a key exactly when their observable histories are identical.
func appendHistoryKey(dst []byte, evs []interp.Event) []byte {
	for _, e := range evs {
		dst = append(dst, byte(e.Kind))
		dst = binary.AppendVarint(dst, int64(e.Thread))
		dst = append(dst, e.Op...)
		dst = append(dst, 0)
		dst = binary.AppendVarint(dst, int64(len(e.Args)))
		for _, v := range e.Args {
			dst = binary.AppendVarint(dst, v)
		}
		if e.HasRet {
			dst = append(dst, 1)
			dst = binary.AppendVarint(dst, e.Ret)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// journalRound is what the journal says about one round: its distinct
// repair clauses and the repair the solver chose.
type journalRound struct {
	clauses map[string]bool
	chosen  string
}

func journaledRounds(events []telemetry.Event) map[int]*journalRound {
	out := map[int]*journalRound{}
	at := func(r int) *journalRound {
		if out[r] == nil {
			out[r] = &journalRound{clauses: map[string]bool{}}
		}
		return out[r]
	}
	for _, ev := range events {
		switch e := ev.(type) {
		case telemetry.Violation:
			if len(e.Disjunction) > 0 {
				at(e.Round).clauses[predKey(telemetry.Predicates(e.Disjunction))] = true
			}
		case telemetry.SolverResult:
			at(e.Round).chosen = predKey(telemetry.Predicates(e.Chosen))
		}
	}
	return out
}

func predKey(ps []synth.Predicate) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	return strings.Join(parts, " ")
}

func fenceKey(fs []synth.InsertedFence) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = fmt.Sprintf("%d/%v", f.After, f.Kind)
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// metrics turns the accumulated figures into the per-layer metrics.
func (a *layerAcc) metrics() map[string]float64 {
	m := map[string]float64{
		"sched.ns_per_exec":     fdiv(float64(a.execNS), float64(a.execs)),
		"sched.ns_per_step":     fdiv(float64(a.execNS), float64(a.steps)),
		"sched.steps_per_exec":  fdiv(float64(a.steps), float64(a.execs)),
		"sched.iters_per_exec":  fdiv(float64(a.iters), float64(a.execs)),
		"sched.spins_per_exec":  fdiv(float64(a.spin), float64(a.execs)),
		"sched.allocs_per_exec": fdiv(float64(a.allocs), float64(a.execs)),
		"sched.execs_per_s":     fdiv(float64(a.execs), a.replayWall.Seconds()),

		"synth.collect_ns_per_exec":   fdiv(float64(a.collectNS), float64(a.collectExecs)) - fdiv(float64(a.execNS), float64(a.execs)),
		"synth.preds_per_violation":   fdiv(float64(a.violationPreds), float64(a.violations)),
		"spec.check_ns":               fdiv(float64(a.checkNS), float64(a.checks)),
		"spec.checks_per_task":        fdiv(float64(a.checks), float64(a.tasks)),
		"core.verdict_cache_hit_frac": fdiv(float64(a.cacheHits), float64(a.cacheHits+a.miss)),

		"sat.solve_ms":               fdiv(float64(a.solveNS)/1e6, float64(a.solves)),
		"sat.solve_fresh_ms":         fdiv(float64(a.solveFreshNS)/1e6, float64(a.solves)),
		"sat.conflicts":              fdiv(float64(a.conflicts), float64(a.solves)),
		"sat.decisions":              fdiv(float64(a.decisions), float64(a.solves)),
		"sat.propagations":           fdiv(float64(a.propagations), float64(a.solves)),
		"sat.models":                 fdiv(float64(a.model), float64(a.solves)),
		"synth.clauses_per_round":    fdiv(float64(a.clauses), float64(a.rounds)),
		"synth.predicates_per_round": fdiv(float64(a.predicates), float64(a.rounds)),
		"synth.truncated_rounds":     float64(a.truncated),
		"synth.enforce_us":           fdiv(float64(a.enforceNS)/1e3, float64(a.enforces)),

		"core.collect_ms":              fdiv(a.collectUS/1e3, float64(a.synths)),
		"core.solve_ms":                fdiv(a.solveUS/1e3, float64(a.synths)),
		"core.validate_ms":             fdiv(a.validateUS/1e3, float64(a.synths)),
		"core.minimize_ms":             fdiv(a.minUS/1e3, float64(a.synths)),
		"core.unaccounted_ms":          fdiv(float64(a.tracedWall)/1e6-(a.collectUS+a.solveUS+a.validateUS+a.minUS)/1e3, float64(a.synths)),
		"core.worker_busy_frac":        fdiv(a.busyNS, a.busyCap),
		"core.rounds_per_task":         fdiv(float64(a.roundsTotal), float64(a.synths)),
		"core.execs_per_task":          fdiv(float64(a.execsTotal), float64(a.synths)),
		"core.validate_execs_per_task": fdiv(float64(a.validExecs), float64(a.synths)),
		"core.alloc_mb_per_task":       fdiv(a.controlMB, float64(len(a.controls))),

		"lang.compile_us":           fdiv(float64(a.langNS)/1e3, float64(a.langN)),
		"interp.compile_us":         fdiv(float64(a.interpNS)/1e3, float64(a.interpN)),
		"staticanalysis.analyze_us": fdiv(float64(a.analyzeNS)/1e3, float64(a.analyzeN)),

		"proggen.states_per_task": fdiv(float64(a.states), float64(a.enums)),
		"proggen.states_per_s":    fdiv(float64(a.states), float64(a.enumNS)/1e9),
		"proggen.partial_frac":    fdiv(float64(a.partial), float64(a.enums)),

		"trace.dropped_events":             float64(a.dropped),
		"telemetry.journal_bytes_per_task": fdiv(float64(a.jbytes), float64(a.synths)),
	}
	if len(a.controls) > 0 {
		m["trace.overhead_frac"] = fdiv(float64(a.tracedWall), float64(a.controlWall)) - 1
	}
	for p := 0; p < phases; p++ {
		ph := a.phase[p]
		m[fmt.Sprintf("sched.phase%d.ns_per_exec", p)] = fdiv(float64(ph.ns), float64(ph.execs))
		m[fmt.Sprintf("sched.phase%d.spins_per_exec", p)] = fdiv(float64(ph.spins), float64(ph.execs))
		m[fmt.Sprintf("sched.phase%d.inconclusive_frac", p)] = ratio(ph.inconclusive, ph.execs)
	}
	return m
}

// controlJob is a traced synthesis queued for its untraced re-run.
type controlJob struct {
	task int
	prog *ir.Program
	cfg  core.Config
	line string
}

// traceSynth runs one synthesis of tasks[task] traced, folds its artifacts
// in, replays it, and queues its untraced control. The error is a replay
// mismatch; the synthesis's own error is in rec.err.
func (a *layerAcc) traceSynth(task int, prog *ir.Program, cfg core.Config, dir string) (*recording, error) {
	if a.registry == nil {
		a.registry = telemetry.NewMetrics(telemetry.NewRegistry(max(cfg.Workers, 1)))
	}
	rec := tracedSynth(prog, cfg, dir, a.registry)
	a.controls = append(a.controls, controlJob{task, prog, cfg, resultLine("", cfg.Seed, rec.res, rec.err)})
	if rec.err != nil {
		return rec, nil
	}
	a.observe(rec)
	return rec, a.replay(rec)
}

// runControls re-runs every traced synthesis untraced. That prices
// observation (trace.overhead_frac), gives the allocation figure, and
// checks that the hooks changed no result.
func (a *layerAcc) runControls(tasks []task) {
	for _, c := range a.controls {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := synthesize(c.prog, c.cfg)
		a.controlWall += time.Since(start)
		runtime.ReadMemStats(&after)
		a.controlMB += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		if resultLine("", c.cfg.Seed, res, err) != c.line {
			tasks[c.task].fail, tasks[c.task].hard = "observation hooks changed the result", true
		}
	}
}
