package sat

import (
	"fmt"
	"sort"
	"time"
)

// Budget bounds minimal-model enumeration. The zero value means unlimited
// (the paper's behaviour: enumerate every minimal model). When a bound
// trips, enumeration degrades gracefully: the models found so far are
// returned (sorted as usual) with truncated=true, so callers can proceed
// with the best repairs discovered instead of hanging on a pathological φ.
type Budget struct {
	// MaxModels stops enumeration after this many distinct minimal models
	// (<= 0: unlimited).
	MaxModels int
	// Timeout bounds the enumeration's wall-clock time (<= 0: unlimited).
	// Granularity is per model found: the check runs between solver calls,
	// so a single very hard Solve can overrun it.
	Timeout time.Duration
}

func (b Budget) unlimited() bool { return b.MaxModels <= 0 && b.Timeout <= 0 }

// Stats reports one enumeration's solver effort, for telemetry. Every
// enumeration runs on its own solver, so the counters are that
// enumeration's alone.
type Stats struct {
	// Models is the number of distinct minimal models found.
	Models int
	// Conflicts is the CDCL conflict count across the enumeration's
	// Solve calls.
	Conflicts int64
	// Decisions is the number of branching decisions.
	Decisions int64
	// Propagations is the number of literals unit-propagated.
	Propagations int64
	// Restarts is the number of search restarts.
	Restarts int64
	// Clauses is the number of input clauses (blocking clauses excluded).
	Clauses int
}

// MinimalModels enumerates the minimal models of a *monotone* CNF formula:
// every clause contains only positive literals, so models are upward
// closed and the interesting solutions are the minimal sets of variables
// set to true. This is precisely the shape of DFENCE's repair formula φ — a
// conjunction, over violating executions, of disjunctions of ordering
// predicates — and this function implements the paper's §5.2 loop: "we
// call MiniSAT repeatedly to find out all solutions (when we find a
// solution, we adjust the formula to exclude that solution), and then we
// select the minimal ones."
//
// Each found model is first shrunk greedily to an irredundant model (try
// dropping each true variable; monotonicity makes the check a simple
// clause-coverage test), then blocked with the clause ¬(∧ its true vars),
// which eliminates that model and all its supersets. Every minimal model
// is eventually produced: a minimal model is never a strict superset of
// another model, so blocking cannot hide it.
//
// nvars is the number of variables (1..nvars); clauses must be positive.
// The result is deterministic: each model is a sorted variable set, and
// the models are sorted by (size, lexicographic).
func MinimalModels(nvars int, clauses [][]Lit) [][]int {
	out, _ := MinimalModelsBudget(nvars, clauses, Budget{})
	return out
}

// MinimalModelsBudget is MinimalModels under an enumeration budget. When
// the budget trips before the enumeration is exhausted, the minimal models
// found so far are returned with truncated=true; each returned model is
// still irredundant (the greedy shrink runs per model, not at the end), so
// a truncated answer is a sound — merely possibly incomplete — repair set.
// The MaxModels cutoff is deterministic; the Timeout cutoff is wall-clock
// and therefore machine-dependent.
func MinimalModelsBudget(nvars int, clauses [][]Lit, budget Budget) (models [][]int, truncated bool) {
	return MinimalModelsStats(nvars, clauses, budget, nil)
}

// MinimalModelsStats is MinimalModelsBudget additionally reporting the
// enumeration's solver effort into st (ignored when nil). The models
// returned are identical to MinimalModelsBudget's.
func MinimalModelsStats(nvars int, clauses [][]Lit, budget Budget, st *Stats) (models [][]int, truncated bool) {
	s := NewSolver()
	for s.NumVars() < nvars {
		s.NewVar()
	}
	for _, c := range clauses {
		for _, l := range c {
			if l <= 0 {
				panic(fmt.Errorf("sat: literal %d in a monotone clause", l))
			}
		}
		if err := s.AddClause(c...); err != nil {
			panic(err)
		}
	}
	var deadline time.Time
	if budget.Timeout > 0 {
		deadline = time.Now().Add(budget.Timeout)
	}
	cur := make([]bool, nvars+1)
	seen := modelSet{buckets: make(map[uint64][]int32), offs: []int32{0}}
	var (
		min   []int
		block []Lit
		out   [][]int
	)
	for s.search() == nil {
		// Shrink the model greedily to an irredundant one, dropping
		// variables in descending order (deterministic).
		for v := 1; v <= nvars; v++ {
			cur[v] = s.Value(v)
		}
		for v := nvars; v >= 1; v-- {
			if !cur[v] {
				continue
			}
			cur[v] = false
			if !coversPositive(clauses, cur) {
				cur[v] = true
			}
		}
		min = min[:0]
		for v := 1; v <= nvars; v++ {
			if cur[v] {
				min = append(min, v)
			}
		}
		if seen.insert(min) {
			out = append(out, append([]int(nil), min...))
		}
		if len(min) == 0 {
			break // empty model satisfies everything: stop
		}
		if !budget.unlimited() {
			if (budget.MaxModels > 0 && len(out) >= budget.MaxModels) ||
				(!deadline.IsZero() && time.Now().After(deadline)) {
				truncated = true
				break
			}
		}
		// Block this minimal model and all its supersets.
		block = block[:0]
		for _, v := range min {
			block = append(block, Lit(-v))
		}
		if err := s.AddClause(block...); err != nil {
			panic(err)
		}
	}
	if st != nil {
		*st = Stats{
			Models:       len(out),
			Conflicts:    s.Conflicts(),
			Decisions:    s.Decisions(),
			Propagations: s.Propagations(),
			Restarts:     s.Restarts(),
			Clauses:      len(clauses),
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out, truncated
}

// coversPositive reports whether the true-set in cur satisfies every
// positive clause.
func coversPositive(clauses [][]Lit, cur []bool) bool {
	for _, c := range clauses {
		ok := false
		for _, l := range c {
			if cur[int(l)] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// modelSet deduplicates variable-set models with integer keys: models are
// stored in a flat arena and probed by FNV-1a hash with exact collision
// checks.
type modelSet struct {
	buckets map[uint64][]int32
	arena   []int32
	offs    []int32 // model i is arena[offs[i]:offs[i+1]]
}

// insert adds the model if absent; reports whether it was new.
func (ms *modelSet) insert(model []int) bool {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range model {
		h ^= uint64(uint32(v))
		h *= prime64
	}
	for _, idx := range ms.buckets[h] {
		got := ms.arena[ms.offs[idx]:ms.offs[idx+1]]
		if len(got) != len(model) {
			continue
		}
		eq := true
		for i, v := range got {
			if int(v) != model[i] {
				eq = false
				break
			}
		}
		if eq {
			return false
		}
	}
	ms.buckets[h] = append(ms.buckets[h], int32(len(ms.offs)-1))
	for _, v := range model {
		ms.arena = append(ms.arena, int32(v))
	}
	ms.offs = append(ms.offs, int32(len(ms.arena)))
	return true
}

// MinimumModels filters MinimalModels down to those of smallest
// cardinality — Algorithm 2's "minimal satisfying assignment" choice.
func MinimumModels(nvars int, clauses [][]Lit) [][]int {
	all := MinimalModels(nvars, clauses)
	if len(all) == 0 {
		return nil
	}
	best := len(all[0])
	var out [][]int
	for _, m := range all {
		if len(m) == best {
			out = append(out, m)
		}
	}
	return out
}
