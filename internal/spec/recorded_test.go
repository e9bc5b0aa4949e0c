package spec_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/sched"
	"dfence/internal/spec"
)

// verdictsFile pins the sequentialization search's SC and linearizability
// verdicts: 500 mutated deque histories, 32 chase-lev histories recorded
// under PSO, and two histories (one accepting, one rejecting) whose
// per-thread progress product exceeds 2^62. There is no update flag: a
// re-pin is a hand-copied file, so it shows up as a reviewed diff.
const verdictsFile = "testdata/verdicts.txt"

// historyDigest fingerprints a history's content and timing, so a line
// pins which history it judged as well as the verdicts.
func historyDigest(ops []spec.Op) string {
	var b strings.Builder
	for _, o := range ops {
		fmt.Fprintf(&b, "%v[%d,%d];", o, o.Inv, o.Res)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return fmt.Sprintf("%x", sum[:8])
}

// wideHistory builds a serial history over 64 threads whose progress
// product (Π (ops per thread + 1)) exceeds 2^62. Thread 0 runs owner,
// threads 1..63 one steal each. With accept, the steals all find the deque
// empty and come first; without, every steal claims the value 1, which
// only one of them can have taken.
func wideHistory(accept bool) []spec.Op {
	var ops []spec.Op
	add := func(o spec.Op) {
		o.Inv, o.Res = 2*len(ops), 2*len(ops)+1
		ops = append(ops, o)
	}
	steals := func(ret int64) {
		for t := 1; t < 64; t++ {
			add(spec.Op{Thread: t, Name: "steal", Ret: ret, HasRet: true})
		}
	}
	if accept {
		steals(spec.EmptyVal)
		add(spec.Op{Thread: 0, Name: "put", Args: []int64{1}})
		add(spec.Op{Thread: 0, Name: "take", Ret: 1, HasRet: true})
		return ops
	}
	add(spec.Op{Thread: 0, Name: "put", Args: []int64{1}})
	add(spec.Op{Thread: 0, Name: "put", Args: []int64{2}})
	steals(1)
	return ops
}

// recordedVerdicts judges every recorded history on one reused Checker
// (as the engine does) and returns the verdict file's content.
func recordedVerdicts(t *testing.T) string {
	t.Helper()
	var ck spec.Checker
	var sb strings.Builder
	line := func(name string, ops []spec.Op, newSpec func() spec.Sequential) {
		sc := ck.Check(spec.SeqConsistency, ops, newSpec, false)
		lin := ck.Check(spec.Linearizability, ops, newSpec, false)
		fmt.Fprintf(&sb, "%s ops=%d in=%s sc=%v lin=%v\n", name, len(ops), historyDigest(ops), sc, lin)
	}

	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		ops := spec.MutateHistory(rng, spec.GenSerialDequeHistory(rng, 2+rng.Intn(9)))
		line(fmt.Sprintf("deque/trial=%d", trial), ops, spec.NewDeque)
	}

	b, err := progs.ByName("chase-lev")
	if err != nil {
		t.Fatal(err)
	}
	prog := b.Program()
	for seed := int64(1); seed <= 32; seed++ {
		res := sched.Run(prog, memmodel.PSO, nil, sched.DefaultOptions(seed))
		ops := spec.CompleteOps(res.History)
		if b.RelaxStealAborts {
			ops = spec.RelaxStealAborts(ops)
		}
		line(fmt.Sprintf("chase-lev/PSO/seed=%d", seed), ops, b.NewSpec())
	}

	line("wide/accept", wideHistory(true), spec.NewDeque)
	line("wide/reject", wideHistory(false), spec.NewDeque)
	return sb.String()
}

// TestRecordedVerdicts: the sequentialization search reproduces the
// committed verdicts.
func TestRecordedVerdicts(t *testing.T) {
	want, err := os.ReadFile(filepath.FromSlash(verdictsFile))
	if err != nil {
		t.Fatal(err)
	}
	got := recordedVerdicts(t)
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Errorf("line %d: want %q, got %q", i+1, w, g)
		}
	}
	t.Fatalf("%s does not match; the full file for these results is:\n%s", verdictsFile, got)
}
