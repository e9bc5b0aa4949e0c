// Cross-phase execution caching. Two exact caches sit between the engine
// and Algorithm 1's verdict/trial logic:
//
//  1. The verdict memo: judging an execution (spec.CompleteOps + the
//     sequentialization search) is a pure function of the recorded
//     history, so each worker memoizes verdict-by-history. Round
//     executions under the demonic scheduler produce heavily recurring
//     histories, and the memo persists across rounds AND into the
//     validation pass — the sequentialization DFS runs once per distinct
//     history instead of once per execution.
//
//  2. The fence-touch outcome transfer: the validation and redundancy
//     trials re-run the same seed block against programs differing only
//     in which fences are present. An execution that never reaches a
//     fence is bit-identical with or without it (same instruction
//     sequence, same RNG draws, same history), so its verdict transfers
//     to every candidate program whose dropped fences it never touched.
//     Trials are compiled with interp.CompileWatched, which records per
//     seed the bitmask of fences the execution reached; a trial then
//     runs only the seeds whose outcome the candidate could actually
//     change. A fence with no watch slot of its own counts as touched by
//     every execution, so its trial runs the whole seed block. The
//     validation pass arms the baseline as it goes: a failed drop
//     early-stops at its first violation, while a successful drop ran
//     every must-run seed clean, and those watched results become the
//     baseline for every later trial. The redundancy scan seeds the
//     baseline from its all-fences cleanliness check.
//
// Both caches are exact — they skip recomputation, never approximate it —
// so every trial's any-violation verdict is the one a full run of its seed
// block would give. testdata/trial_outcomes.txt and golden_digests.txt pin
// the results.
package core

import (
	"context"
	"encoding/binary"

	"dfence/internal/interp"
	"dfence/internal/sched"
	"dfence/internal/spec"
	"dfence/internal/trace"
)

// maxJudgeMemoEntries bounds each worker's verdict memo. At the cap the
// memo stops inserting (lookups keep working), so a pathological workload
// with unbounded distinct histories degrades to one search per execution
// plus one map probe instead of growing without bound.
const maxJudgeMemoEntries = 1 << 16

// judgeCache is one worker's verdict memo. It is owned by the reduce
// calls of a single batch worker index (the worker-ownership invariant in
// sched/batch.go), so no locking is needed; a slice of them indexed by
// worker is shared across every batch of one synthesis, which is what
// carries hits across rounds and into the validation trials.
type judgeCache struct {
	memo map[string]verdict
	key  []byte // scratch for the alloc-free map[string(bytes)] probe
	// ck owns the reusable checker state (memo table, partition buffers,
	// recycled spec states) that makes cache misses cheap too.
	ck           spec.Checker
	hits, misses int64
}

// newJudgeCaches returns one verdict memo per worker.
func newJudgeCaches(cfg *Config) []judgeCache {
	return make([]judgeCache, cfg.Workers)
}

// tally adds the caches' hit/miss counters to the result.
func tallyJudgeCaches(jcs []judgeCache, result *Result) {
	for i := range jcs {
		result.CacheHits += int(jcs[i].hits)
		result.CacheMisses += int(jcs[i].misses)
	}
}

// judgeWorker is judge with the calling worker's verdict memo. The memo
// only covers the history check: step-limited, timed-out, and
// interpreter-detected violations are classified directly from the
// result, exactly as judge does.
func judgeWorker(cfg *Config, jcs []judgeCache, worker int, res *interp.Result) verdict {
	if res.StepLimitHit || res.TimedOut {
		return verdictInconclusive
	}
	if res.Violation != nil {
		return verdictViolation
	}
	jc := &jcs[worker]
	jc.key = appendHistoryKey(jc.key[:0], res.History)
	if v, ok := jc.memo[string(jc.key)]; ok {
		jc.hits++
		cfg.mv.CacheHits.Inc(worker)
		cfg.Tracer.InstantSampled(worker+1, trace.InstantCacheHit, 0, 0)
		return v
	}
	v := judgeMiss(cfg, jc, res)
	jc.misses++
	cfg.mv.CacheMisses.Inc(worker)
	if jc.memo == nil {
		jc.memo = make(map[string]verdict, 256)
	}
	if len(jc.memo) < maxJudgeMemoEntries {
		jc.memo[string(jc.key)] = v
	}
	return v
}

// judgeMiss is judge's history check on the worker's reusable Checker:
// identical verdicts, none of the per-call allocations.
func judgeMiss(cfg *Config, jc *judgeCache, res *interp.Result) verdict {
	ops := jc.ck.CompleteOps(res.History)
	if cfg.RelaxStealAborts {
		ops = jc.ck.RelaxStealAborts(ops)
	}
	if jc.ck.Check(cfg.Criterion, ops, cfg.NewSpec, cfg.CheckGarbage) {
		return verdictClean
	}
	return verdictViolation
}

// appendHistoryKey serializes a history into dst as a memo key. The
// encoding is injective (op names are NUL-terminated, counts are
// explicit), so two executions share a key exactly when their observable
// histories are identical — the condition under which the verdict is
// guaranteed equal.
func appendHistoryKey(dst []byte, evs []interp.Event) []byte {
	for _, e := range evs {
		dst = append(dst, byte(e.Kind))
		dst = binary.AppendVarint(dst, int64(e.Thread))
		dst = append(dst, e.Op...)
		dst = append(dst, 0)
		dst = binary.AppendVarint(dst, int64(len(e.Args)))
		for _, a := range e.Args {
			dst = binary.AppendVarint(dst, a)
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

// --- fence-touch outcome transfer ---

// trialOut records one watched trial execution: whether it ran (an
// early-cancelled batch leaves abandoned slots), whether it violated, and
// the watch-order bitmask of fences it reached.
type trialOut struct {
	ran      bool
	violated bool
	mask     uint64
}

// watchedBatch runs the executions seeds[k] (k in order) of the watched
// compile c and reports, per seed, the violation verdict and the touched
// bitmask. With stopEarly the first violation cancels the rest — callers
// use the full per-seed data only when no violation was found, in which
// case every slot completed.
func watchedBatch(c *interp.Compiled, cfg *Config, jcs []judgeCache, seeds []int, optsFor func(i int) sched.Options, stopEarly bool) []trialOut {
	return sched.RunBatchCompiled(context.Background(), c, cfg.Model, len(seeds), cfg.Workers, nil,
		func(k int) sched.Options { return optsFor(seeds[k]) },
		func(k, worker int, _ interp.Observer, res *interp.Result, err *sched.ExecError) (trialOut, bool) {
			cfg.mv.Executions.Inc(worker)
			if err != nil {
				// The touched mask of a panicked execution is unknowable, so
				// report every fence touched: the seed is re-run in every
				// trial.
				cfg.mv.Panics.Inc(worker)
				return trialOut{ran: true, mask: ^uint64(0)}, false
			}
			v := judgeWorker(cfg, jcs, worker, res) == verdictViolation
			if v {
				cfg.mv.Violations.Inc(worker)
			}
			return trialOut{ran: true, violated: v, mask: res.FenceTouched}, v && stopEarly
		})
}

// baseEntry is the baseline record of one trial seed: whether the
// current fence set's execution at that seed is known (and clean — only
// clean runs are recorded), and the canonical mask of the touch units it
// reached. Unknown seeds are must-run for every trial.
type baseEntry struct {
	known   bool
	touched uint64
}

// fenceTrialCache drives the outcome transfer for one greedy
// fence-dropping pass. A touch unit is identified by a canonical index
// that stays stable as the kept set shrinks (validation: the fence's
// insertion site; redundancy scan: the fence's index in the program's
// fence list). Units below interp.MaxWatchedFences own one canonical mask
// bit; the rest have no watch slot and count as touched by every
// execution.
type fenceTrialCache struct {
	cfg     *Config
	jcs     []judgeCache
	optsFor func(i int) sched.Options
	budget  int
	base    []baseEntry
	// skipped counts executions whose verdict transferred from the
	// baseline instead of running.
	skipped int
}

// canonicalize maps a watch-order touched mask to canonical unit bits;
// units[w] is the touch unit of watch index w.
func canonicalize(mask uint64, units []int) uint64 {
	var out uint64
	for w, u := range units {
		if mask&(1<<uint(w)) != 0 {
			out |= 1 << uint(u)
		}
	}
	return out
}

// seedBaseline records the full-seed-block baseline from a violation-free
// pass: out[k] is seed k's run against the current fence set.
func (fc *fenceTrialCache) seedBaseline(out []trialOut, units []int) {
	fc.base = make([]baseEntry, len(out))
	for k, o := range out {
		fc.base[k] = baseEntry{known: true, touched: canonicalize(o.mask, units)}
	}
}

// mustRun returns the seeds whose verdict dropping a fence of the given
// touch unit could change: seeds with no baseline record yet, and clean
// runs that reached the unit — every seed, for a unit with no watch slot.
// Every other seed's execution is bit-identical under the candidate, so
// its clean verdict transfers.
func (fc *fenceTrialCache) mustRun(unit int) []int {
	var seeds []int
	for k := range fc.base {
		if unit >= interp.MaxWatchedFences || !fc.base[k].known || fc.base[k].touched&(1<<uint(unit)) != 0 {
			seeds = append(seeds, k)
		}
	}
	fc.skipped += fc.budget - len(seeds)
	return seeds
}

// trial runs the candidate compile over the must-run seeds and reports
// whether any violated. A violated trial leaves the baseline untouched
// (its partial results describe a program that is not becoming the kept
// set). A clean trial ran every must-run seed, the drop succeeds, and
// the candidate becomes the new kept set — so the trial's own watched
// results refresh the baseline entries of the seeds that ran, while the
// transferred seeds' entries stay valid verbatim (their executions are
// bit-identical under the new set and never reached the dropped unit). This is what arms the cache without a dedicated
// baseline pass in validation.
func (fc *fenceTrialCache) trial(c *interp.Compiled, seeds []int, units []int) bool {
	if len(seeds) == 0 {
		return false
	}
	out := watchedBatch(c, fc.cfg, fc.jcs, seeds, fc.optsFor, true)
	for _, o := range out {
		if o.ran && o.violated {
			return true
		}
	}
	for k, o := range out {
		fc.base[seeds[k]] = baseEntry{known: true, touched: canonicalize(o.mask, units)}
	}
	return false
}
