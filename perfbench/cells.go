package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"dfence/internal/core"
	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/lang"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/spec"
)

//go:embed table3_reference.txt
var referenceText string

// cell is one Table 3 cell: a corpus program under one criterion and model.
type cell struct {
	bench *progs.Benchmark
	prog  *ir.Program
	crit  spec.Criterion
	model memmodel.Model
}

var criterionNames = map[spec.Criterion]string{
	spec.MemorySafety:    "safety",
	spec.SeqConsistency:  "sc",
	spec.Linearizability: "lin",
}

func (c cell) key() string {
	return fmt.Sprintf("%s/%s/%s", c.bench.Name, criterionNames[c.crit], strings.ToLower(c.model.String()))
}

// compileCorpus compiles the 13-algorithm corpus from source and lists
// its cells under the given models, in Table 3's order. The iWSQs'
// SC and linearizability cells are not run, as in the paper. Each
// program's front-end and dispatch compile times land in stats.
func compileCorpus(models []memmodel.Model, stats *compileStats) ([]cell, error) {
	var cells []cell
	for _, b := range progs.All() {
		start := time.Now()
		prog, err := lang.Compile(b.Source)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", b.Name, err)
		}
		mid := time.Now()
		interp.Compile(prog)
		stats.add(mid.Sub(start), time.Since(mid))
		for _, crit := range []spec.Criterion{spec.MemorySafety, spec.SeqConsistency, spec.Linearizability} {
			if b.SkipSeqCheck && crit != spec.MemorySafety {
				continue
			}
			for _, m := range models {
				cells = append(cells, cell{bench: b, prog: prog, crit: crit, model: m})
			}
		}
	}
	return cells, nil
}

// compileStats accumulates front-end (lang) and dispatch (interp)
// compile times.
type compileStats struct {
	lang, interp time.Duration
	n            int
}

func (s *compileStats) add(lang, dispatch time.Duration) {
	s.lang += lang
	s.interp += dispatch
	s.n++
}

// cellConfig is the configuration eval.SynthesizeCell builds for a
// Table 3 cell at the paper's settings: K executions per round, 10
// rounds, validation on, flush probability 0.1 on TSO and 0.5 otherwise.
// maxIters > 0 adds the deterministic per-execution iteration budget.
func cellConfig(c cell, seed int64, k, workers, maxIters int) core.Config {
	flush := 0.5
	if c.model == memmodel.TSO {
		flush = 0.1
	}
	return core.Config{
		Model:            c.model,
		Criterion:        c.crit,
		NewSpec:          c.bench.NewSpec(),
		CheckGarbage:     c.bench.CheckGarbage,
		RelaxStealAborts: c.bench.RelaxStealAborts,
		ExecsPerRound:    k,
		MaxRounds:        10,
		FlushProb:        flush,
		Seed:             seed,
		Workers:          workers,
		ValidateFences:   true,
		MaxItersPerExec:  maxIters,
	}
}

// reference is the hand-transcribed Table 3 verdict of one cell.
type reference struct {
	class string // none, fences or unsat
	// known marks a cell whose verdict disagrees with the paper today at
	// some seeds; its disagreement is counted but explained. A
	// disagreement on any other cell makes the run incorrect.
	known     bool
	deviation string // EXPERIMENTS.md's documented deviation, if any
}

func parseReference(text string) (map[string]reference, error) {
	out := map[string]reference{}
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 5 {
			return nil, fmt.Errorf("reference line %d: want benchmark criterion model class status", n+1)
		}
		switch f[3] {
		case "none", "fences", "unsat":
		default:
			return nil, fmt.Errorf("reference line %d: unknown class %q", n+1, f[3])
		}
		if f[4] != "-" && f[4] != "known" {
			return nil, fmt.Errorf("reference line %d: unknown status %q (want - or known)", n+1, f[4])
		}
		key := f[0] + "/" + f[1] + "/" + f[2]
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("reference line %d: duplicate cell %s", n+1, key)
		}
		out[key] = reference{class: f[3], known: f[4] == "known", deviation: strings.Join(f[5:], " ")}
	}
	return out, nil
}

// verdictClass maps a synthesis result to its Table 3 class; "" means the
// run produced no verdict (inconclusive or aborted).
func verdictClass(res *core.Result) string {
	switch res.Outcome {
	case core.OutcomeConverged:
		if len(res.Fences) == 0 {
			return "none"
		}
		return "fences"
	case core.OutcomeUnfixable:
		return "unsat"
	}
	return ""
}

// synthesize is core.Synthesize with a panic reported as an error, so one
// poisoned task fails instead of ending the run.
func synthesize(prog *ir.Program, cfg core.Config) (res *core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("synthesis panicked: %v", p)
		}
	}()
	return core.Synthesize(prog, cfg)
}

// synthTask turns one synthesis into a task. It fails on an error, on a
// run without a verdict, on any inconclusive execution behind the verdict,
// and on a verdict that disagrees with ref (when ref is non-nil). Every
// failure is hard, unless it is a known defect: a disagreement on a cell
// the reference marks known, or, when budgetCut is set, a missing verdict
// or inconclusive executions (the RMO cells that lose executions to the
// iteration budget).
func synthTask(name string, lat time.Duration, res *core.Result, err error, ref *reference, budgetCut bool) task {
	t := task{name: name, latency: lat}
	if err != nil {
		t.fail, t.hard = "error: "+err.Error(), true
		return t
	}
	skipped := 0
	for _, r := range res.Rounds {
		skipped += r.Skipped
	}
	t.execs = res.TotalExecutions + skipped
	t.inconclusive = res.TotalInconclusive
	class := verdictClass(res)
	switch {
	case class == "":
		t.fail, t.hard = "outcome "+res.Outcome.String(), !budgetCut
	case res.TotalInconclusive > 0:
		t.fail, t.hard = "verdict rests on inconclusive executions", !budgetCut
	case ref != nil && class != ref.class:
		t.fail, t.hard = fmt.Sprintf("verdict %s, reference %s", class, ref.class), !ref.known
		if ref.deviation != "" {
			t.fail += " (documented deviation)"
		}
	}
	return t
}

// resultLine renders everything determinism covers about one synthesis:
// outcome, fences and each round's counters. Timings are excluded.
func resultLine(name string, seed int64, res *core.Result, err error) string {
	if err != nil {
		return fmt.Sprintf("%s seed=%d error=%v", name, seed, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d outcome=%v synthesized=%d fences=%v", name, seed, res.Outcome, res.SynthesizedFences, res.Fences)
	for _, r := range res.Rounds {
		fmt.Fprintf(&b, " [%d %d %d %d %d %d %d %v]", r.Executions, r.Violations, r.Inconclusive,
			r.Errors, r.Skipped, r.DistinctClauses, r.Predicates, r.Inserted)
	}
	return b.String()
}

// digest hashes a pass's result lines.
func digest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
