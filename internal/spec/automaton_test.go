package spec

import (
	"math/rand"
	"reflect"
	"testing"
)

// mutateHistory perturbs a valid serial deque history into histories of
// all kinds — overlapping, garbage-returning, reordered — so the
// recorded verdicts (testdata/verdicts.txt) cover accepting and rejecting
// searches alike.
func mutateHistory(rng *rand.Rand, ops []Op) []Op {
	out := make([]Op, len(ops))
	copy(out, ops)
	switch rng.Intn(4) {
	case 0: // keep serial (accepting path)
	case 1: // stretch responses to create overlap
		for i := range out {
			out[i].Res += rng.Intn(5)
		}
	case 2: // corrupt one return value
		if i := rng.Intn(len(out)); out[i].HasRet {
			out[i].Ret = 999
		}
	case 3: // swap two ops' positions across threads (often non-SC)
		i, j := rng.Intn(len(out)), rng.Intn(len(out))
		out[i].Thread, out[j].Thread = out[j].Thread, out[i].Thread
	}
	return out
}

// TestAutomatonTypeGuard reuses one Checker across different spec types:
// the tables must flush on the type change (canonical keys are only
// unique within a type) and verdicts must stay correct.
func TestAutomatonTypeGuard(t *testing.T) {
	var c Checker
	deqOps := serialOps([]Op{
		{Thread: 0, Name: "put", Args: []int64{1}},
		{Thread: 1, Name: "steal", Ret: 1, HasRet: true},
	})
	if !c.Check(SeqConsistency, deqOps, NewDeque, false) {
		t.Fatal("valid deque history rejected")
	}
	if c.aut.typ != reflect.TypeOf(NewDeque()) {
		t.Fatalf("automaton typed %v, want Deque", c.aut.typ)
	}
	// Queue and Deque share the encodeInts state encoding; without the
	// type guard the interned empty-deque state would be served as an
	// empty-queue state.
	qOps := serialOps([]Op{
		{Thread: 0, Name: "enqueue", Args: []int64{7}},
		{Thread: 1, Name: "dequeue", Ret: 7, HasRet: true},
	})
	if !c.Check(SeqConsistency, qOps, NewQueue, false) {
		t.Fatal("valid queue history rejected after spec-type switch")
	}
	if c.aut.typ != reflect.TypeOf(NewQueue()) {
		t.Fatalf("automaton typed %v after switch, want Queue", c.aut.typ)
	}
	badQ := serialOps([]Op{
		{Thread: 0, Name: "enqueue", Args: []int64{7}},
		{Thread: 1, Name: "dequeue", Ret: 8, HasRet: true},
	})
	if c.Check(SeqConsistency, badQ, NewQueue, false) {
		t.Fatal("invalid queue history accepted after spec-type switch")
	}
}

// TestAutomatonEnsureFlushesOverCap checks the generational flush: once a
// table exceeds its cap, the next ensure discards and retypes the tables.
func TestAutomatonEnsureFlushesOverCap(t *testing.T) {
	var a automaton
	typ := reflect.TypeOf(NewDeque())
	a.ensure(typ)
	for i := 0; i <= maxAutomatonTrans; i++ {
		a.trans[uint64(i)] = 0
	}
	a.ensure(typ)
	if len(a.trans) != 0 {
		t.Fatalf("over-cap transition table not flushed: %d entries", len(a.trans))
	}
}

// TestWideProgressInterned: a history whose progress product exceeds 2^62
// runs the same search with interned progress words instead of the
// mixed-radix packing (the recorded wide/* verdicts pin the results).
func TestWideProgressInterned(t *testing.T) {
	ops := []Op{{Thread: 0, Name: "put", Args: []int64{1}}}
	for tid := 1; tid < 64; tid++ {
		ops = append(ops, Op{Thread: tid, Name: "steal", Ret: 1, HasRet: true})
	}
	var c Checker
	if c.Check(SeqConsistency, serialOps(ops), NewDeque, false) {
		t.Fatal("63 steals of one put accepted")
	}
	if !c.wide || len(c.progIDs) == 0 {
		t.Fatalf("wide=%v with %d interned progress vectors; want the interned path", c.wide, len(c.progIDs))
	}
	if !c.Check(SeqConsistency, serialOps(ops[:2]), NewDeque, false) || c.wide {
		t.Fatalf("two-thread history after a wide one: wide=%v", c.wide)
	}
}
