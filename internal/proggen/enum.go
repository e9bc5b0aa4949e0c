package proggen

// Exhaustive interleaving+flush+resolve enumeration — the ground-truth
// oracle. The interpreter (interp.Machine) exposes three scheduler-visible
// transitions — "thread tid executes its next step", "thread tid flushes
// the oldest buffered store for address a", and (under load-deferring
// models) "thread tid resolves its idx-th deferred load" — so a program's
// full behavior space is the tree of finite choice sequences. The enumerator
// walks that tree by pre-order depth-first search over a pool of Machines,
// one per depth: each child of a decision point is made by copying the
// parent's machine into the next depth's (Machine.CopyFrom) and applying
// one transition there, except the last child, which takes the parent's
// machine itself. No choice prefix is ever re-executed. Each decision
// point is fingerprinted with Machine.AppendStateKey, and any path
// reaching an already-expanded state is pruned. With memoization the cost
// is O(|states| × branching × state size) — at most one copy and one key
// per edge — which keeps litmus-sized programs (a few thousand states)
// enumerable in milliseconds. Keys are kept as exact byte strings rather
// than hashes: a hash collision would silently prune a reachable state.
//
// Two reductions keep the tree small without losing outcomes:
//
//   - Local-run collapse: after an exec choice the chosen thread keeps
//     stepping while its steps are StepLocal (registers / provably
//     thread-local memory only, the same partial-order reduction
//     sched.Run applies). Local steps commute with every other thread's
//     transitions, so bundling them with the preceding visible step
//     cannot remove a reachable outcome.
//   - State dedup subsumes path symmetry: two interleavings reaching the
//     same memory/buffers/frames state share their entire future.
//
// Enumeration is exact when Complete is true; budgets (states, steps)
// make it degrade to "explored a prefix" rather than hang on a too-large
// program, and the oracle skips containment checks that need
// completeness when a budget tripped.

import (
	"fmt"
	"sort"
	"strings"

	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/memmodel"
)

// choice is one scheduler transition: an exec step, a flush of one
// buffered store, or a resolve of one deferred load.
type choice struct {
	tid     int
	flush   bool
	resolve bool
	addr    int64 // flush target (flush=true only)
	idx     int   // deferred-load queue index (resolve=true only)
}

// EnumOptions bounds one enumeration.
type EnumOptions struct {
	// MaxStates bounds the number of distinct decision-point states
	// expanded (default 60000).
	MaxStates int
	// MaxSteps bounds machine steps along any single path from the
	// initial state (default 20000) — a backstop; generated programs
	// terminate long before it.
	MaxSteps int
	// LocalRun bounds the local-run collapse (default 128).
	LocalRun int
}

func (o *EnumOptions) fill() {
	if o.MaxStates <= 0 {
		o.MaxStates = 60000
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 20000
	}
	if o.LocalRun <= 0 {
		o.LocalRun = 128
	}
}

// EnumResult is the behavior space of one program under one model.
type EnumResult struct {
	Model memmodel.Model
	// Outcomes is the set of terminal outcome strings (see OutcomeString)
	// of violation-free executions.
	Outcomes map[string]bool
	// Violations is the set of distinct violation descriptions reached.
	Violations map[string]bool
	// States is the number of distinct decision-point states expanded;
	// Paths the number of terminal states reached.
	States, Paths int
	// Complete is true when no budget tripped: Outcomes and Violations
	// are then exactly the reachable sets.
	Complete bool
}

// HasViolation reports whether any explored execution violated.
func (r *EnumResult) HasViolation() bool { return len(r.Violations) > 0 }

// SortedOutcomes returns the outcome set in sorted order (for reports).
func (r *EnumResult) SortedOutcomes() []string {
	out := make([]string, 0, len(r.Outcomes))
	for o := range r.Outcomes {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// SortedViolations returns the violation descriptions sorted.
func (r *EnumResult) SortedViolations() []string {
	out := make([]string, 0, len(r.Violations))
	for v := range r.Violations {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// OutcomeString canonicalizes a terminal execution: the printed values in
// order plus the exit code.
func OutcomeString(output []int64, exitCode int64) string {
	var b strings.Builder
	for i, v := range output {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	fmt.Fprintf(&b, "|exit=%d", exitCode)
	return b.String()
}

// violationString canonicalizes a violation for set membership.
func violationString(v *interp.Violation) string {
	return fmt.Sprintf("%v@L%d: %s", v.Kind, v.Label, v.Msg)
}

// level is one slot of the DFS's machine pool: the machine at a decision
// point and the transitions it offers. Levels live for the whole
// enumeration, so their storage is reused by every state expanded in
// them.
type level struct {
	m       interp.Machine
	choices []choice
}

// enumerator holds the per-depth machine pool for one Enumerate call.
type enumerator struct {
	opts EnumOptions
	res  *EnumResult
	seen map[string]struct{}
	key  []byte
	pool []*level
	stop bool // the state budget tripped: expand nothing more
}

// Enumerate explores every schedule of prog under model within the
// budgets. prog must be linked.
func Enumerate(prog *ir.Program, model memmodel.Model, opts EnumOptions) *EnumResult {
	opts.fill()
	e := &enumerator{
		opts: opts,
		res: &EnumResult{
			Model:      model,
			Outcomes:   make(map[string]bool),
			Violations: make(map[string]bool),
			Complete:   true,
		},
		seen: make(map[string]struct{}),
		pool: []*level{{}},
	}
	e.pool[0].m.Reset(interp.Compile(prog), model, nil)
	e.visit(0)
	return e.res
}

// visit expands the decision point held by pool[d] (pre-order DFS): it
// dedups and counts the state, records a terminal, or else, for each
// transition in choices order, copies the state into pool[d+1], applies
// that one transition there, and recurses. The last transition needs no
// copy — nothing reads this decision point after its last child — so it
// is applied to pool[d] in place and the loop expands the result.
func (e *enumerator) visit(d int) {
	cur := e.pool[d]
	m := &cur.m
	for {
		e.key = m.AppendStateKey(e.key[:0])
		if _, dup := e.seen[string(e.key)]; dup {
			return
		}
		if e.res.States >= e.opts.MaxStates {
			// Once the state budget trips, further expansion cannot
			// restore completeness — stop the whole walk.
			e.res.Complete = false
			e.stop = true
			return
		}
		e.seen[string(e.key)] = struct{}{}
		e.res.States++

		if m.Done() {
			e.res.Paths++
			if v := m.Violation(); v != nil {
				e.res.Violations[violationString(v)] = true
			} else {
				e.res.Outcomes[OutcomeString(m.Output(), m.ExitCode())] = true
			}
			return
		}

		cur.choices = choices(m, cur.choices[:0])
		if len(cur.choices) == 0 {
			// No transition possible and not Done: a deadlock terminal
			// (e.g. a join on a thread that can never finish).
			e.res.Paths++
			e.res.Violations[violationString(&interp.Violation{
				Kind:  interp.VDeadlock,
				Label: ir.NoLabel,
				Msg:   "no thread can make progress",
			})] = true
			return
		}
		if d+1 == len(e.pool) {
			e.pool = append(e.pool, &level{})
		}
		next := &e.pool[d+1].m
		last := len(cur.choices) - 1
		for _, ch := range cur.choices[:last] {
			next.CopyFrom(m)
			if e.apply(next, ch) {
				e.res.Complete = false
				continue
			}
			e.visit(d + 1)
			if e.stop {
				return
			}
		}
		if e.apply(m, cur.choices[last]) {
			e.res.Complete = false
			return
		}
	}
}

// apply performs one transition on m, reporting whether the step budget
// tripped.
func (e *enumerator) apply(m *interp.Machine, ch choice) (overBudget bool) {
	if ch.flush {
		m.FlushOne(ch.tid, ch.addr)
	} else if ch.resolve {
		m.ResolveOne(ch.tid, ch.idx)
	} else {
		kind := m.StepThread(ch.tid)
		// Local-run collapse (mirrors sched.Run's POR window): a
		// thread that only touched registers or thread-local memory
		// keeps going — interleaving those steps cannot change any
		// observable outcome.
		for n := 0; kind == interp.StepLocal && n < e.opts.LocalRun; n++ {
			if m.Violation() != nil || !m.CanExec(ch.tid) {
				break
			}
			kind = m.StepThread(ch.tid)
		}
	}
	return m.Steps() >= e.opts.MaxSteps
}

// choices enumerates the transitions available at the machine's current
// state in deterministic order: exec per thread id ascending, then flush
// per (thread id, flushable address in canonical buffer order), then
// resolve per (thread id, deferred-load queue index). Flushes offer only
// the currently flushable addresses — an address parked behind a
// store-store barrier epoch is not a legal transition. Resolves offer
// every queue index: out-of-order resolution is exactly the load
// reordering the deferring models exhibit, so skipping indices would
// prune reachable outcomes.
func choices(m *interp.Machine, dst []choice) []choice {
	n := m.NumThreads()
	for tid := 0; tid < n; tid++ {
		if m.CanExec(tid) {
			dst = append(dst, choice{tid: tid})
		}
	}
	for tid := 0; tid < n; tid++ {
		if !m.CanFlush(tid) {
			continue
		}
		for _, addr := range m.Thread(tid).Buffers().FlushableAddrsView() {
			dst = append(dst, choice{tid: tid, flush: true, addr: addr})
		}
	}
	for tid := 0; tid < n; tid++ {
		for idx := 0; idx < m.DeferredCount(tid); idx++ {
			dst = append(dst, choice{tid: tid, resolve: true, idx: idx})
		}
	}
	return dst
}
