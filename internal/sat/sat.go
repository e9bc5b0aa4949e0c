// Package sat is a small conflict-driven clause-learning (CDCL) SAT solver
// standing in for the MiniSAT dependency of the paper (§5.2). It supports
// incremental clause addition, solving, and the enumeration loop DFENCE
// uses to obtain all minimal repair assignments: solve, block the model,
// repeat until unsatisfiable.
//
// Literals follow the DIMACS convention: variable v (v >= 1) appears as the
// literal +v, its negation as -v.
package sat

import (
	"errors"
	"fmt"
	"sort"
)

// Lit is a DIMACS-style literal: +v or -v for variable v >= 1.
type Lit int

// Var returns the literal's variable.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return -l }

// value of a variable in the trail.
type tribool int8

const (
	unassigned tribool = iota
	vtrue
	vfalse
)

// Solver is an incremental CDCL solver. The zero value is usable.
type Solver struct {
	numVars int
	clauses []*clause // problem + learnt clauses
	watches map[Lit][]*clause

	assign   []tribool // 1-indexed by variable
	level    []int     // decision level per variable
	reason   []*clause // antecedent clause per variable
	trail    []Lit
	trailLim []int // trail index at each decision level
	qhead    int

	activity []float64 // per-variable VSIDS activity
	varInc   float64

	phase []bool // saved phases

	unsat bool // a top-level conflict was derived

	totalConflicts    int64 // conflicts across every Solve call (telemetry)
	totalDecisions    int64 // branch decisions across every Solve call
	totalPropagations int64 // literals propagated across every Solve call
	totalRestarts     int64 // search restarts across every Solve call
}

// Conflicts reports the number of conflicts the solver has analyzed
// across all Solve calls — the CDCL effort metric telemetry exports.
func (s *Solver) Conflicts() int64 { return s.totalConflicts }

// Decisions reports the number of branching decisions made across all
// Solve calls.
func (s *Solver) Decisions() int64 { return s.totalDecisions }

// Propagations reports the number of literals unit-propagated across all
// Solve calls.
func (s *Solver) Propagations() int64 { return s.totalPropagations }

// Restarts reports the number of search restarts across all Solve calls.
func (s *Solver) Restarts() int64 { return s.totalRestarts }

type clause struct {
	lits   []Lit
	learnt bool
}

// NewSolver returns an empty solver.
func NewSolver() *Solver {
	return &Solver{
		watches: make(map[Lit][]*clause),
		varInc:  1,
	}
}

// NewVar introduces a fresh variable and returns its index (>= 1).
func (s *Solver) NewVar() int {
	s.numVars++
	s.assign = append(s.assign, unassigned)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	if len(s.assign) == 1 {
		// index 0 is padding so variables are 1-indexed
		s.assign = append(s.assign, unassigned)
		s.level = append(s.level, 0)
		s.reason = append(s.reason, nil)
		s.activity = append(s.activity, 0)
		s.phase = append(s.phase, false)
	}
	return s.numVars
}

// NumVars returns the number of variables introduced so far.
func (s *Solver) NumVars() int { return s.numVars }

func (s *Solver) valueLit(l Lit) tribool {
	v := s.assign[l.Var()]
	if v == unassigned {
		return unassigned
	}
	if (l > 0) == (v == vtrue) {
		return vtrue
	}
	return vfalse
}

// AddClause adds a clause over existing variables. Adding the empty clause
// (or a clause that simplifies to it) makes the formula unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) error {
	if s.unsat {
		return nil
	}
	// Deduplicate and drop tautologies.
	seen := make(map[Lit]bool, len(lits))
	out := lits[:0:0]
	for _, l := range lits {
		if l == 0 || l.Var() > s.numVars {
			return fmt.Errorf("sat: literal %d references unknown variable", l)
		}
		if seen[l.Neg()] {
			return nil // tautology, trivially satisfied
		}
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	// Remove literals already false at level 0; a clause true at level 0 is
	// dropped.
	filtered := out[:0]
	for _, l := range out {
		switch s.valueLit(l) {
		case vtrue:
			if s.level[l.Var()] == 0 {
				return nil
			}
			filtered = append(filtered, l)
		case vfalse:
			if s.level[l.Var()] != 0 {
				filtered = append(filtered, l)
			}
		default:
			filtered = append(filtered, l)
		}
	}
	out = filtered
	switch len(out) {
	case 0:
		s.unsat = true
		return nil
	case 1:
		// Must enqueue at level 0; requires backtracking to root first.
		s.backtrackTo(0)
		if !s.enqueue(out[0], nil) {
			s.unsat = true
		} else if s.propagate() != nil {
			s.unsat = true
		}
		return nil
	}
	c := &clause{lits: append([]Lit(nil), out...)}
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return nil
}

func (s *Solver) watch(c *clause) {
	s.watches[c.lits[0].Neg()] = append(s.watches[c.lits[0].Neg()], c)
	s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], c)
}

func (s *Solver) enqueue(l Lit, from *clause) bool {
	switch s.valueLit(l) {
	case vtrue:
		return true
	case vfalse:
		return false
	}
	v := l.Var()
	if l > 0 {
		s.assign[v] = vtrue
	} else {
		s.assign[v] = vfalse
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// propagate runs unit propagation; returns a conflicting clause or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		s.totalPropagations++
		ws := s.watches[l]
		kept := ws[:0]
		var conflict *clause
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			if conflict != nil {
				kept = append(kept, c)
				continue
			}
			// Normalize: watched literal being falsified at index 1.
			if c.lits[0].Neg() == l {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.valueLit(c.lits[0]) == vtrue {
				kept = append(kept, c)
				continue
			}
			// Find a new literal to watch.
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.valueLit(c.lits[k]) != vfalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], c)
					moved = true
					break
				}
			}
			if moved {
				continue // no longer watching l
			}
			kept = append(kept, c)
			// Clause is unit or conflicting.
			if !s.enqueue(c.lits[0], c) {
				conflict = c
			}
		}
		s.watches[l] = kept
		if conflict != nil {
			return conflict
		}
	}
	return nil
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.numVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

// analyze derives a 1UIP learnt clause from the conflict; returns the
// clause and the backjump level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := []Lit{0} // slot 0 for the asserting literal
	seen := make([]bool, s.numVars+1)
	counter := 0
	var p Lit
	idx := len(s.trail) - 1

	c := confl
	for {
		for _, q := range c.lits {
			if q == p || q.Neg() == p {
				continue
			}
			v := q.Var()
			if !seen[v] && s.level[v] > 0 {
				seen[v] = true
				s.bumpVar(v)
				if s.level[v] == s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Pick the next trail literal at the current level that is seen.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		counter--
		seen[p.Var()] = false
		if counter == 0 {
			break
		}
		c = s.reason[p.Var()]
	}
	learnt[0] = p.Neg()

	// Backjump level = highest level among the other literals.
	bj := 0
	for i := 1; i < len(learnt); i++ {
		if lv := s.level[learnt[i].Var()]; lv > bj {
			bj = lv
		}
	}
	// Move a literal of the backjump level to position 1 for watching.
	for i := 1; i < len(learnt); i++ {
		if s.level[learnt[i].Var()] == bj {
			learnt[1], learnt[i] = learnt[i], learnt[1]
			break
		}
	}
	return learnt, bj
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	limit := s.trailLim[level]
	for i := len(s.trail) - 1; i >= limit; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v] == vtrue
		s.assign[v] = unassigned
		s.reason[v] = nil
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranchVar() int {
	best, bestAct := 0, -1.0
	for v := 1; v <= s.numVars; v++ {
		if s.assign[v] == unassigned && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	return best
}

// ErrUnsat is returned by Solve when the formula is unsatisfiable.
var ErrUnsat = errors.New("sat: unsatisfiable")

// Solve searches for a satisfying assignment. On success it returns the
// model as a map from variable to boolean. The solver may be reused: add
// more clauses and call Solve again (the paper's enumeration loop).
func (s *Solver) Solve() (map[int]bool, error) {
	if err := s.search(); err != nil {
		return nil, err
	}
	model := make(map[int]bool, s.numVars)
	for i := 1; i <= s.numVars; i++ {
		model[i] = s.assign[i] == vtrue
	}
	return model, nil
}

// Value reports the value of variable v in the assignment found by the
// last successful search. It is the allocation-free model accessor the
// enumeration hot path uses instead of Solve's map.
func (s *Solver) Value(v int) bool { return s.assign[v] == vtrue }

// restartBase is the conflict count of the first geometric restart;
// subsequent restart intervals grow by 3/2. Restarts redirect the search
// using the accumulated VSIDS activity; they never affect which models
// exist, only the order the search visits them.
const restartBase = 100

// search runs CDCL to a full satisfying assignment, readable through
// Value without allocation, or returns ErrUnsat.
func (s *Solver) search() error {
	if s.unsat {
		return ErrUnsat
	}
	s.backtrackTo(0)
	if s.propagate() != nil {
		s.unsat = true
		return ErrUnsat
	}
	conflictsAtRestart := s.totalConflicts
	restartLimit := int64(restartBase)
	for {
		confl := s.propagate()
		if confl != nil {
			if s.decisionLevel() == 0 {
				s.unsat = true
				return ErrUnsat
			}
			s.totalConflicts++
			learnt, bj := s.analyze(confl)
			s.backtrackTo(bj)
			if len(learnt) == 1 {
				if !s.enqueue(learnt[0], nil) {
					s.unsat = true
					return ErrUnsat
				}
			} else {
				c := &clause{lits: learnt, learnt: true}
				s.clauses = append(s.clauses, c)
				s.watch(c)
				s.enqueue(learnt[0], c)
			}
			s.varInc *= 1.05 // decay others relative to recent bumps
			if s.totalConflicts-conflictsAtRestart >= restartLimit {
				conflictsAtRestart = s.totalConflicts
				restartLimit += restartLimit / 2
				s.totalRestarts++
				s.backtrackTo(0)
			}
			continue
		}
		v := s.pickBranchVar()
		if v == 0 {
			return nil // full assignment
		}
		s.totalDecisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		l := Lit(v)
		if !s.phase[v] {
			l = -l
		}
		s.enqueue(l, nil)
	}
}

// SolveWithBlocking enumerates models: after each model found, onModel is
// invoked; if it returns a non-empty blocking clause, the clause is added
// and the search continues; if it returns nil, enumeration stops. Returns
// the number of models visited.
func (s *Solver) SolveWithBlocking(onModel func(map[int]bool) []Lit) (int, error) {
	n := 0
	for {
		model, err := s.Solve()
		if errors.Is(err, ErrUnsat) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
		block := onModel(model)
		if block == nil {
			return n, nil
		}
		if err := s.AddClause(block...); err != nil {
			return n, err
		}
	}
}

// EvalClauses checks a full assignment against a clause set (testing aid).
func EvalClauses(clauses [][]Lit, model map[int]bool) bool {
	for _, c := range clauses {
		ok := false
		for _, l := range c {
			if model[l.Var()] == (l > 0) {
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

// SortLits sorts a literal slice for deterministic output.
func SortLits(ls []Lit) {
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
}
