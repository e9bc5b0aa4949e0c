package sat

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func newVars(s *Solver, n int) []int {
	vs := make([]int, n)
	for i := range vs {
		vs[i] = s.NewVar()
	}
	return vs
}

func TestTriviallySat(t *testing.T) {
	s := NewSolver()
	v := newVars(s, 2)
	if err := s.AddClause(Lit(v[0]), Lit(v[1])); err != nil {
		t.Fatal(err)
	}
	m, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !m[v[0]] && !m[v[1]] {
		t.Fatal("model does not satisfy the only clause")
	}
}

func TestTriviallyUnsat(t *testing.T) {
	s := NewSolver()
	v := s.NewVar()
	if err := s.AddClause(Lit(v)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClause(Lit(-v)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); !errors.Is(err, ErrUnsat) {
		t.Fatalf("want unsat, got %v", err)
	}
}

func TestUnitPropagationChain(t *testing.T) {
	// x1; x1->x2; x2->x3; x3->x4
	s := NewSolver()
	v := newVars(s, 4)
	s.AddClause(Lit(v[0]))
	s.AddClause(Lit(-v[0]), Lit(v[1]))
	s.AddClause(Lit(-v[1]), Lit(v[2]))
	s.AddClause(Lit(-v[2]), Lit(v[3]))
	m, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i, vi := range v {
		if !m[vi] {
			t.Errorf("x%d should be forced true", i+1)
		}
	}
}

func TestTautologyDropped(t *testing.T) {
	s := NewSolver()
	v := s.NewVar()
	if err := s.AddClause(Lit(v), Lit(-v)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); err != nil {
		t.Fatalf("tautology made formula unsat: %v", err)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := NewSolver()
	s.NewVar()
	if err := s.AddClause(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); !errors.Is(err, ErrUnsat) {
		t.Fatal("empty clause did not make formula unsat")
	}
}

func TestUnknownVariableRejected(t *testing.T) {
	s := NewSolver()
	if err := s.AddClause(Lit(3)); err == nil {
		t.Fatal("literal over unknown variable accepted")
	}
}

// Pigeonhole PHP(3,2): 3 pigeons into 2 holes — classically unsat and
// requires real search + learning.
func TestPigeonhole32Unsat(t *testing.T) {
	s := NewSolver()
	// p[i][j]: pigeon i in hole j
	p := make([][]int, 3)
	for i := range p {
		p[i] = newVars(s, 2)
	}
	for i := 0; i < 3; i++ {
		s.AddClause(Lit(p[i][0]), Lit(p[i][1])) // each pigeon somewhere
	}
	for j := 0; j < 2; j++ {
		for a := 0; a < 3; a++ {
			for b := a + 1; b < 3; b++ {
				s.AddClause(Lit(-p[a][j]), Lit(-p[b][j]))
			}
		}
	}
	if _, err := s.Solve(); !errors.Is(err, ErrUnsat) {
		t.Fatal("PHP(3,2) reported satisfiable")
	}
}

func TestPigeonhole54Unsat(t *testing.T) {
	s := NewSolver()
	const P, H = 5, 4
	p := make([][]int, P)
	for i := range p {
		p[i] = newVars(s, H)
	}
	for i := 0; i < P; i++ {
		lits := make([]Lit, H)
		for j := 0; j < H; j++ {
			lits[j] = Lit(p[i][j])
		}
		s.AddClause(lits...)
	}
	for j := 0; j < H; j++ {
		for a := 0; a < P; a++ {
			for b := a + 1; b < P; b++ {
				s.AddClause(Lit(-p[a][j]), Lit(-p[b][j]))
			}
		}
	}
	if _, err := s.Solve(); !errors.Is(err, ErrUnsat) {
		t.Fatal("PHP(5,4) reported satisfiable")
	}
}

// brute force satisfiability for cross-checking
func bruteSat(nvars int, clauses [][]Lit) (map[int]bool, bool) {
	for mask := 0; mask < 1<<nvars; mask++ {
		m := make(map[int]bool, nvars)
		for v := 1; v <= nvars; v++ {
			m[v] = mask&(1<<(v-1)) != 0
		}
		if EvalClauses(clauses, m) {
			return m, true
		}
	}
	return nil, false
}

func randomCNF(rng *rand.Rand, nvars, nclauses, width int) [][]Lit {
	clauses := make([][]Lit, nclauses)
	for i := range clauses {
		w := 1 + rng.Intn(width)
		c := make([]Lit, 0, w)
		for k := 0; k < w; k++ {
			v := 1 + rng.Intn(nvars)
			l := Lit(v)
			if rng.Intn(2) == 0 {
				l = -l
			}
			c = append(c, l)
		}
		clauses[i] = c
	}
	return clauses
}

// Property: CDCL agrees with brute force on random small formulas, and the
// model it returns actually satisfies the clauses.
func TestQuickAgreesWithBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nvars := 2 + rng.Intn(9) // up to 10 vars
		clauses := randomCNF(rng, nvars, 2+rng.Intn(25), 3)
		s := NewSolver()
		for i := 0; i < nvars; i++ {
			s.NewVar()
		}
		for _, c := range clauses {
			if err := s.AddClause(c...); err != nil {
				return false
			}
		}
		model, err := s.Solve()
		_, want := bruteSat(nvars, clauses)
		if want {
			return err == nil && EvalClauses(clauses, model)
		}
		return errors.Is(err, ErrUnsat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestIncrementalSolving(t *testing.T) {
	// Solve, add a blocking clause, solve again — DFENCE's enumeration use.
	s := NewSolver()
	v := newVars(s, 3)
	s.AddClause(Lit(v[0]), Lit(v[1]), Lit(v[2]))
	models := 0
	n, err := s.SolveWithBlocking(func(m map[int]bool) []Lit {
		models++
		if models > 20 {
			t.Fatal("runaway enumeration")
		}
		// Block this exact assignment.
		block := make([]Lit, 0, 3)
		for _, vi := range v {
			if m[vi] {
				block = append(block, Lit(-vi))
			} else {
				block = append(block, Lit(vi))
			}
		}
		return block
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Errorf("enumerated %d models of x|y|z, want 7", n)
	}
}

// --- minimal models ---

// bruteMinimalModels computes minimal models of a positive CNF by brute
// force.
func bruteMinimalModels(nvars int, clauses [][]Lit) [][]int {
	var models [][]int
	for mask := 0; mask < 1<<nvars; mask++ {
		m := make(map[int]bool, nvars)
		for v := 1; v <= nvars; v++ {
			m[v] = mask&(1<<(v-1)) != 0
		}
		if !EvalClauses(clauses, m) {
			continue
		}
		var set []int
		for v := 1; v <= nvars; v++ {
			if m[v] {
				set = append(set, v)
			}
		}
		models = append(models, set)
	}
	// Keep only minimal ones.
	var min [][]int
	for i, a := range models {
		minimal := true
		for j, b := range models {
			if i != j && subset(b, a) && len(b) < len(a) {
				minimal = false
				break
			}
		}
		if minimal {
			min = append(min, a)
		}
	}
	return min
}

func subset(a, b []int) bool {
	set := make(map[int]bool, len(b))
	for _, x := range b {
		set[x] = true
	}
	for _, x := range a {
		if !set[x] {
			return false
		}
	}
	return true
}

func setsEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(s []int) string {
		return fmtKey(s)
	}
	m := map[string]bool{}
	for _, s := range a {
		m[key(s)] = true
	}
	for _, s := range b {
		if !m[key(s)] {
			return false
		}
	}
	return true
}

func TestMinimalModelsSimple(t *testing.T) {
	// (1|2) & (2|3): minimal models {2}, {1,3}
	clauses := [][]Lit{{1, 2}, {2, 3}}
	got := MinimalModels(3, clauses)
	want := [][]int{{2}, {1, 3}}
	if !setsEqual(got, want) {
		t.Fatalf("MinimalModels = %v, want %v", got, want)
	}
	// Minimum (smallest) models: just {2}.
	minimum := MinimumModels(3, clauses)
	if len(minimum) != 1 || len(minimum[0]) != 1 || minimum[0][0] != 2 {
		t.Fatalf("MinimumModels = %v, want [[2]]", minimum)
	}
}

func TestMinimalModelsEmptyFormula(t *testing.T) {
	got := MinimalModels(3, nil)
	if len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("empty formula should have the empty minimal model, got %v", got)
	}
}

func TestMinimalModelsUnsatIsEmpty(t *testing.T) {
	// A positive formula is never unsat unless it has an empty clause.
	got := MinimalModels(2, [][]Lit{{}})
	if len(got) != 0 {
		t.Fatalf("formula with empty clause has models: %v", got)
	}
}

func TestQuickMinimalModelsMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nvars := 1 + rng.Intn(7)
		nclauses := 1 + rng.Intn(8)
		clauses := make([][]Lit, nclauses)
		for i := range clauses {
			w := 1 + rng.Intn(3)
			c := make([]Lit, 0, w)
			for k := 0; k < w; k++ {
				c = append(c, Lit(1+rng.Intn(nvars)))
			}
			clauses[i] = c
		}
		got := MinimalModels(nvars, clauses)
		want := bruteMinimalModels(nvars, clauses)
		return setsEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMinimalModelsDeterministic(t *testing.T) {
	clauses := [][]Lit{{3, 1}, {2, 1}, {3, 2}}
	a := MinimalModels(3, clauses)
	b := MinimalModels(3, clauses)
	if !setsEqual(a, b) || len(a) != len(b) {
		t.Fatal("nondeterministic result")
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("ordering differs between runs")
			}
		}
	}
}

func TestLitHelpers(t *testing.T) {
	if Lit(-5).Var() != 5 || Lit(5).Var() != 5 {
		t.Error("Var wrong")
	}
	if Lit(5).Neg() != Lit(-5) {
		t.Error("Neg wrong")
	}
}

func fmtKey(vs []int) string {
	b := make([]byte, 0, len(vs)*3)
	for _, v := range vs {
		for v > 0 {
			b = append(b, byte('0'+v%10))
			v /= 10
		}
		b = append(b, ',')
	}
	return string(b)
}
