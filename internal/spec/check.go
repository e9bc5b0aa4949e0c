package spec

import (
	"fmt"
	"strings"
)

// IsSequentiallyConsistent reports whether the completed operations admit
// an interleaving that preserves each thread's program order and is
// accepted by the sequential specification (operation-level sequential
// consistency). newSpec constructs a fresh specification state.
//
// The search enumerates sequentializations with memoization on
// (per-thread progress vector, specification state) — the worst case is
// exponential in history length (paper §6.4), which is why clients keep
// executions short.
func IsSequentiallyConsistent(ops []Op, newSpec func() Sequential) bool {
	return check(ops, newSpec, false)
}

// IsLinearizable reports whether the completed operations admit a
// sequentialization that preserves both program order and the real-time
// order between non-overlapping operations (Herlihy & Wing; the Wing–Gong
// style search).
func IsLinearizable(ops []Op, newSpec func() Sequential) bool {
	return check(ops, newSpec, true)
}

func check(ops []Op, newSpec func() Sequential, realTime bool) bool {
	var c Checker
	return c.check(ops, newSpec, realTime)
}

// clone copies state for one DFS branch, reusing a recycled dead state
// when possible: every state in one search is the same concrete type, so
// a copyFrom hit replaces the Clone allocation with an in-place copy.
func (s *Checker) clone(state Sequential) Sequential {
	if n := len(s.free); n > 0 {
		c := s.free[n-1]
		if cf, ok := c.(copierFrom); ok && cf.copyFrom(state) {
			s.free = s.free[:n-1]
			return c
		}
	}
	return state.Clone()
}

// recycle returns a state whose branch failed to the free list. Dead
// states are unreachable from anywhere else (each owns its backing
// storage exclusively), so reuse cannot alias a live state.
func (s *Checker) recycle(state Sequential) {
	if _, ok := state.(copierFrom); ok {
		s.free = append(s.free, state)
	}
}

// minimalInRealTime reports whether op may be linearized next: no other
// unchosen operation completed before op was invoked. Each thread's
// unchosen operations are in program order, so only each thread's next
// operation can precede op in real time.
func minimalInRealTime(queues [][]Op, idx []int, self int, op Op) bool {
	for j := range queues {
		if j == self || idx[j] >= len(queues[j]) {
			continue
		}
		if queues[j][idx[j]].Res < op.Inv {
			return false
		}
	}
	return true
}

// RelaxStealAborts rewrites every steal()=EMPTY operation that overlaps
// (in real time) another take or steal into a no-op "aborted steal". The
// published work-stealing algorithms return ABORT from steal when they
// lose a race with a concurrent remover (Chase-Lev's CAS failure, THE's
// handshake): a contended steal that gives up is not claiming the deque
// was empty. A steal()=EMPTY with no overlapping remover really is an
// emptiness claim and stays strict — which is exactly the paper's Fig. 2c
// linearizability violation. Removal-free histories are unaffected.
func RelaxStealAborts(ops []Op) []Op {
	var c Checker
	return c.RelaxStealAborts(ops)
}

// NoGarbage checks the idempotent-WSQ safety property used for the iWSQ
// benchmarks under the Memory Safety column of Table 3: every non-EMPTY
// value returned by take or steal must have been an argument of some put
// in the history ("no garbage tasks returned"). Idempotent semantics allow
// a task to be returned more than once, so no uniqueness is required.
func NoGarbage(ops []Op) bool {
	_, bad := firstGarbage(ops)
	return !bad
}

// Criterion selects which history check an analysis runs.
type Criterion uint8

const (
	// MemorySafety checks only interpreter-detected violations (plus
	// NoGarbage for the idempotent WSQs); histories are not sequentialized.
	MemorySafety Criterion = iota
	// SeqConsistency is operation-level sequential consistency.
	SeqConsistency
	// Linearizability is Herlihy/Wing linearizability.
	Linearizability
)

func (c Criterion) String() string {
	switch c {
	case MemorySafety:
		return "memory-safety"
	case SeqConsistency:
		return "sequential-consistency"
	case Linearizability:
		return "linearizability"
	}
	return "criterion(?)"
}

// ParseCriterion converts a name ("safety", "sc", "lin") to a Criterion.
func ParseCriterion(s string) (Criterion, bool) {
	switch strings.ToLower(s) {
	case "safety", "memsafety", "memory-safety":
		return MemorySafety, true
	case "sc", "sequential-consistency":
		return SeqConsistency, true
	case "lin", "linearizability":
		return Linearizability, true
	}
	return MemorySafety, false
}

// DescribeFailure explains in prose why a history fails the criterion —
// the "failed specification check" section of a violation-witness
// report. It re-runs the relevant checks; calling it on a passing
// history returns "". The description names the first garbage return
// (when NoGarbage is what failed) or states that no legal
// sequentialization of the per-thread operation sequences exists,
// listing those sequences.
func DescribeFailure(c Criterion, ops []Op, newSpec func() Sequential, checkGarbage bool) string {
	if checkGarbage {
		if op, bad := firstGarbage(ops); bad {
			return fmt.Sprintf("no-garbage check failed: t%d's %v returned a value never passed to put", op.Thread, op)
		}
	}
	var what string
	switch c {
	case SeqConsistency:
		if newSpec == nil || IsSequentiallyConsistent(ops, newSpec) {
			return ""
		}
		what = "sequentially-consistent ordering"
	case Linearizability:
		if newSpec == nil || IsLinearizable(ops, newSpec) {
			return ""
		}
		what = "linearization"
	default:
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s check failed: no %s of the completed operations is accepted by the sequential specification\n", c, what)
	byThread := map[int][]Op{}
	var tids []int
	for _, o := range ops {
		if _, seen := byThread[o.Thread]; !seen {
			tids = append(tids, o.Thread)
		}
		byThread[o.Thread] = append(byThread[o.Thread], o)
	}
	for i := 0; i < len(tids); i++ { // tids arrive in first-invocation order; sort by id
		for j := i + 1; j < len(tids); j++ {
			if tids[j] < tids[i] {
				tids[i], tids[j] = tids[j], tids[i]
			}
		}
	}
	for _, tid := range tids {
		parts := make([]string, len(byThread[tid]))
		for i, o := range byThread[tid] {
			parts[i] = o.String()
		}
		fmt.Fprintf(&b, "  t%d: %s\n", tid, strings.Join(parts, "; "))
	}
	return strings.TrimRight(b.String(), "\n")
}

// firstGarbage returns the first take/steal whose non-EMPTY return value
// no put supplied.
func firstGarbage(ops []Op) (Op, bool) {
	puts := make(map[int64]bool)
	for _, o := range ops {
		if o.Name == "put" && len(o.Args) == 1 {
			puts[o.Args[0]] = true
		}
	}
	for _, o := range ops {
		if (o.Name == "take" || o.Name == "steal") && o.HasRet && o.Ret != EmptyVal {
			if !puts[o.Ret] {
				return o, true
			}
		}
	}
	return Op{}, false
}

// Check applies the criterion to a history: MemorySafety always passes
// here (interpreter faults are judged separately); SC and linearizability
// run the sequentialization search. checkGarbage additionally applies
// NoGarbage (used for idempotent WSQs).
func Check(c Criterion, ops []Op, newSpec func() Sequential, checkGarbage bool) bool {
	var ck Checker
	return ck.Check(c, ops, newSpec, checkGarbage)
}
