package interp

import (
	"testing"

	"dfence/internal/ir"
	"dfence/internal/memmodel"
)

// runAll drives the machine to completion with a simple deterministic
// scheduler (see drive). Good enough for single-threaded and join-ordered
// tests.
func runAll(t *testing.T, m *Machine, maxSteps int) {
	t.Helper()
	drive(m, maxSteps)
	if !m.Done() {
		t.Fatal("machine did not finish: step budget exhausted or no thread can act (deadlock)")
	}
}

// drive makes up to n moves, each giving the first thread that can act
// one step (executing, else resolving its oldest deferred load, else
// flushing), and stops early when the machine is done or stuck.
func drive(m *Machine, n int) {
	for i := 0; i < n && !m.Done(); i++ {
		moved := false
		for tid := 0; tid < m.NumThreads() && !moved; tid++ {
			switch {
			case m.CanExec(tid):
				m.StepThread(tid)
			case m.CanResolve(tid):
				m.ResolveOne(tid, 0)
			case m.CanFlush(tid):
				m.FlushOne(tid, m.Thread(tid).Buffers().FlushableAddrsView()[0])
			default:
				continue
			}
			moved = true
		}
		if !moved {
			return
		}
	}
}

// exec1 steps thread tid once and fails the test if it was blocked.
func exec1(t *testing.T, m *Machine, tid int) StepKind {
	t.Helper()
	k := m.StepThread(tid)
	if k == StepBlocked {
		t.Fatalf("thread %d blocked", tid)
	}
	return k
}

// stepUntil steps thread tid until pred holds (or the budget runs out).
func stepUntil(t *testing.T, m *Machine, tid int, pred func() bool) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if pred() {
			return
		}
		exec1(t, m, tid)
	}
	t.Fatal("stepUntil: predicate never held")
}

func mustLink(t *testing.T, p *ir.Program) {
	t.Helper()
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
}

func finish(t *testing.T, b *ir.FuncBuilder) {
	t.Helper()
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
}

// --- sequential semantics ---

func TestFactorialRecursion(t *testing.T) {
	p := ir.NewProgram()
	// fact(n) = n<=1 ? 1 : n*fact(n-1)
	fb := ir.NewFuncBuilder(p, "fact", 1)
	n := fb.Param(0)
	one := fb.Const(1)
	cond := fb.BinOp(ir.BinLe, n, one)
	base, rec := fb.CondBrF(cond)
	rec.Here()
	nm1 := fb.BinOp(ir.BinSub, n, one)
	r := fb.NewReg()
	fb.Call(r, "fact", nm1)
	prod := fb.BinOp(ir.BinMul, n, r)
	fb.RetVal(prod)
	base.Here()
	fb.RetVal(one)
	finish(t, fb)

	mb := ir.NewFuncBuilder(p, "main", 0)
	five := mb.Const(5)
	res := mb.NewReg()
	mb.Call(res, "fact", five)
	mb.Print(res)
	mb.RetVal(res)
	finish(t, mb)
	mustLink(t, p)

	for _, model := range []memmodel.Model{memmodel.SC, memmodel.TSO, memmodel.PSO} {
		m := NewMachine(p, model, nil)
		runAll(t, m, 10000)
		if m.ExitCode() != 120 {
			t.Errorf("%v: fact(5) = %d, want 120", model, m.ExitCode())
		}
		if len(m.Output()) != 1 || m.Output()[0] != 120 {
			t.Errorf("%v: output = %v, want [120]", model, m.Output())
		}
	}
}

func TestGlobalLoopSum(t *testing.T) {
	p := ir.NewProgram()
	if err := p.AddGlobal(&ir.Global{Name: "acc", Size: 1}); err != nil {
		t.Fatal(err)
	}
	b := ir.NewFuncBuilder(p, "main", 0)
	addr := b.GlobalAddr("acc")
	i := b.Const(0)
	lim := b.Const(10)
	one := b.Const(1)
	head := b.NextLabel()
	c := b.BinOp(ir.BinLt, i, lim)
	body, exit := b.CondBrF(c)
	body.Here()
	v, _ := b.Load(addr, "acc")
	nv := b.BinOp(ir.BinAdd, v, i)
	b.Store(addr, nv, "acc")
	b.BinTo(i, ir.BinAdd, i, one)
	b.Br(head)
	exit.Here()
	fin, _ := b.Load(addr, "acc")
	b.RetVal(fin)
	finish(t, b)
	mustLink(t, p)

	for _, model := range []memmodel.Model{memmodel.SC, memmodel.TSO, memmodel.PSO} {
		m := NewMachine(p, model, nil)
		runAll(t, m, 10000)
		if m.ExitCode() != 45 {
			t.Errorf("%v: sum = %d, want 45 (own buffered stores must be visible to own loads)", model, m.ExitCode())
		}
	}
}

func TestGlobalInitValues(t *testing.T) {
	p := ir.NewProgram()
	if err := p.AddGlobal(&ir.Global{Name: "tbl", Size: 3, Init: []int64{7, 8, 9}}); err != nil {
		t.Fatal(err)
	}
	b := ir.NewFuncBuilder(p, "main", 0)
	base := b.GlobalAddr("tbl")
	two := b.Const(2)
	at := b.BinOp(ir.BinAdd, base, two)
	v, _ := b.Load(at, "tbl[2]")
	b.RetVal(v)
	finish(t, b)
	mustLink(t, p)
	m := NewMachine(p, memmodel.SC, nil)
	runAll(t, m, 1000)
	if m.ExitCode() != 9 {
		t.Errorf("tbl[2] = %d, want 9", m.ExitCode())
	}
}

// --- litmus: store buffering (SB) ---

// buildSB: t1: x=1; print(y)   t2: y=1; print(x)
func buildSB(t *testing.T) *ir.Program {
	t.Helper()
	p := ir.NewProgram()
	for _, g := range []string{"x", "y"} {
		if err := p.AddGlobal(&ir.Global{Name: g, Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	mk := func(name, st, ld string) {
		b := ir.NewFuncBuilder(p, name, 0)
		sa := b.GlobalAddr(st)
		one := b.Const(1)
		b.Store(sa, one, st)
		la := b.GlobalAddr(ld)
		v, _ := b.Load(la, ld)
		b.Print(v)
		b.Ret()
		finish(t, b)
	}
	mk("w1", "x", "y")
	mk("w2", "y", "x")
	b := ir.NewFuncBuilder(p, "main", 0)
	t1 := b.Fork("w1")
	t2 := b.Fork("w2")
	b.Join(t1)
	b.Join(t2)
	b.Ret()
	finish(t, b)
	mustLink(t, p)
	return p
}

func TestLitmusSBRelaxed(t *testing.T) {
	// Under TSO and PSO, delaying both flushes lets both loads read 0 —
	// the classic non-SC outcome.
	for _, model := range []memmodel.Model{memmodel.TSO, memmodel.PSO} {
		p := buildSB(t)
		m := NewMachine(p, model, nil)
		stepUntil(t, m, 0, func() bool { return m.NumThreads() == 3 })
		// Run each worker to its print with no flushes in between.
		stepUntil(t, m, 1, func() bool { return len(m.Output()) == 1 })
		stepUntil(t, m, 2, func() bool { return len(m.Output()) == 2 })
		if m.Output()[0] != 0 || m.Output()[1] != 0 {
			t.Errorf("%v: outputs = %v, want [0 0] (both loads bypass buffered stores)", model, m.Output())
		}
		runAll(t, m, 10000)
		if v, _ := m.GlobalValue("x"); v != 1 {
			t.Errorf("%v: x = %d after drain, want 1", model, v)
		}
		if m.Violation() != nil {
			t.Errorf("%v: unexpected violation %v", model, m.Violation())
		}
	}
}

func TestLitmusSBSC(t *testing.T) {
	// Under SC the same schedule commits stores immediately: loads see 1.
	p := buildSB(t)
	m := NewMachine(p, memmodel.SC, nil)
	stepUntil(t, m, 0, func() bool { return m.NumThreads() == 3 })
	stepUntil(t, m, 1, func() bool { return len(m.Output()) == 1 })
	stepUntil(t, m, 2, func() bool { return len(m.Output()) == 2 })
	if m.Output()[0] != 0 {
		t.Errorf("SC: w1 printed %d, want 0 (y not yet stored)", m.Output()[0])
	}
	if m.Output()[1] != 1 {
		t.Errorf("SC: w2 printed %d, want 1 (x committed immediately under SC)", m.Output()[1])
	}
}

// --- litmus: message passing (MP) under PSO ---

// buildMP: t1: data=42; flag=1   t2: spin until flag; print(data)
func buildMP(t *testing.T, withFence bool) *ir.Program {
	t.Helper()
	p := ir.NewProgram()
	for _, g := range []string{"data", "flag"} {
		if err := p.AddGlobal(&ir.Global{Name: g, Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	b := ir.NewFuncBuilder(p, "producer", 0)
	da := b.GlobalAddr("data")
	v := b.Const(42)
	b.Store(da, v, "data")
	if withFence {
		b.Fence(ir.FenceStoreStore)
	}
	fa := b.GlobalAddr("flag")
	one := b.Const(1)
	b.Store(fa, one, "flag")
	b.Ret()
	finish(t, b)

	c := ir.NewFuncBuilder(p, "consumer", 0)
	cfa := c.GlobalAddr("flag")
	head := c.NextLabel()
	fv, _ := c.Load(cfa, "flag")
	nz := c.Not(fv)
	spin, done := c.CondBrF(nz)
	spin.Here()
	c.Br(head)
	done.Here()
	cda := c.GlobalAddr("data")
	dv, _ := c.Load(cda, "data")
	c.Print(dv)
	c.Ret()
	finish(t, c)

	mb := ir.NewFuncBuilder(p, "main", 0)
	t1 := mb.Fork("producer")
	t2 := mb.Fork("consumer")
	mb.Join(t1)
	mb.Join(t2)
	mb.Ret()
	finish(t, mb)
	mustLink(t, p)
	return p
}

func TestLitmusMPPSOReordersStores(t *testing.T) {
	p := buildMP(t, false)
	m := NewMachine(p, memmodel.PSO, nil)
	stepUntil(t, m, 0, func() bool { return m.NumThreads() == 3 })
	// Producer buffers both stores.
	stepUntil(t, m, 1, func() bool { return m.Thread(1).Finished() })
	// Demonically flush flag *before* data (legal under PSO only).
	flagAddr := p.Global("flag").Addr
	if k := m.FlushOne(1, flagAddr); k != StepFlush {
		t.Fatalf("flush of flag failed: %v", k)
	}
	// Consumer sees flag=1 but data=0.
	stepUntil(t, m, 2, func() bool { return len(m.Output()) == 1 })
	if m.Output()[0] != 0 {
		t.Errorf("PSO: consumer read data = %d, want 0 (store-store reordering)", m.Output()[0])
	}
	runAll(t, m, 10000)
}

func TestLitmusMPTSOPreservesStoreOrder(t *testing.T) {
	p := buildMP(t, false)
	m := NewMachine(p, memmodel.TSO, nil)
	stepUntil(t, m, 0, func() bool { return m.NumThreads() == 3 })
	stepUntil(t, m, 1, func() bool { return m.Thread(1).Finished() })
	// Under TSO the FIFO forces data to flush first regardless of the hint.
	flagAddr := p.Global("flag").Addr
	m.FlushOne(1, flagAddr)
	if v, _ := m.GlobalValue("data"); v != 42 {
		t.Errorf("TSO: first flush committed flag before data; data = %d", v)
	}
	if v, _ := m.GlobalValue("flag"); v != 0 {
		t.Error("TSO: flag committed before data")
	}
	runAll(t, m, 10000)
	if m.Output()[0] != 42 {
		t.Errorf("TSO: consumer read %d, want 42", m.Output()[0])
	}
}

func TestLitmusMPPSOWithFence(t *testing.T) {
	p := buildMP(t, true)
	m := NewMachine(p, memmodel.PSO, nil)
	stepUntil(t, m, 0, func() bool { return m.NumThreads() == 3 })
	// Run producer to completion. fence(st-st) is an epoch barrier, not a
	// drain: both stores may still be buffered afterwards, but flag can no
	// longer commit before data.
	stepUntil(t, m, 1, func() bool { return m.Thread(1).Finished() })
	dataAddr := p.Global("data").Addr
	flagAddr := p.Global("flag").Addr
	if !m.Thread(1).Buffers().EmptyFor(flagAddr) {
		if k := m.FlushOne(1, flagAddr); k != StepBlocked {
			t.Error("flag flushed across the store-store barrier")
		}
		if fl := m.Thread(1).Buffers().FlushableAddrs(); len(fl) != 1 || fl[0] != dataAddr {
			t.Errorf("flushable = %v, want data only", fl)
		}
		m.FlushOne(1, dataAddr)
	}
	if v, _ := m.GlobalValue("data"); v != 42 {
		t.Errorf("data not committed after draining its buffer: %d", v)
	}
	if v, _ := m.GlobalValue("flag"); v != 0 {
		t.Error("flag committed before data despite the barrier")
	}
	m.FlushOne(1, flagAddr)
	stepUntil(t, m, 2, func() bool { return len(m.Output()) == 1 })
	if m.Output()[0] != 42 {
		t.Errorf("PSO+fence: consumer read %d, want 42", m.Output()[0])
	}
	runAll(t, m, 10000)
}

// --- CAS and fence forcing ---

func TestCasForcesFlush(t *testing.T) {
	p := ir.NewProgram()
	if err := p.AddGlobal(&ir.Global{Name: "x", Size: 1}); err != nil {
		t.Fatal(err)
	}
	b := ir.NewFuncBuilder(p, "main", 0)
	xa := b.GlobalAddr("x")
	one := b.Const(1)
	two := b.Const(2)
	b.Store(xa, one, "x")
	ok, _ := b.Cas(xa, one, two, "cas x 1->2")
	b.RetVal(ok)
	finish(t, b)
	mustLink(t, p)

	for _, model := range []memmodel.Model{memmodel.TSO, memmodel.PSO} {
		m := NewMachine(p, model, nil)
		// Step until the CAS is next; the store is buffered.
		stepUntil(t, m, 0, func() bool { return m.Thread(0).Buffers().Len() == 1 })
		// Next step must be a forced flush, not the CAS.
		if k := exec1(t, m, 0); k != StepFlush {
			t.Fatalf("%v: step with pending buffer before CAS = %v, want StepFlush", model, k)
		}
		if v, _ := m.GlobalValue("x"); v != 1 {
			t.Fatalf("%v: flush did not commit store", model)
		}
		runAll(t, m, 1000)
		if m.ExitCode() != 1 {
			t.Errorf("%v: CAS failed; exit = %d, want 1", model, m.ExitCode())
		}
		if v, _ := m.GlobalValue("x"); v != 2 {
			t.Errorf("%v: x = %d, want 2", model, v)
		}
	}
}

func TestCasFailureLeavesMemory(t *testing.T) {
	p := ir.NewProgram()
	if err := p.AddGlobal(&ir.Global{Name: "x", Size: 1, Init: []int64{5}}); err != nil {
		t.Fatal(err)
	}
	b := ir.NewFuncBuilder(p, "main", 0)
	xa := b.GlobalAddr("x")
	one := b.Const(1)
	two := b.Const(2)
	ok, _ := b.Cas(xa, one, two, "cas should fail")
	b.RetVal(ok)
	finish(t, b)
	mustLink(t, p)
	m := NewMachine(p, memmodel.TSO, nil)
	runAll(t, m, 1000)
	if m.ExitCode() != 0 {
		t.Errorf("CAS succeeded unexpectedly")
	}
	if v, _ := m.GlobalValue("x"); v != 5 {
		t.Errorf("x = %d, want 5", v)
	}
}

// --- memory safety ---

func buildOOB(t *testing.T, offset int64) *ir.Program {
	t.Helper()
	p := ir.NewProgram()
	if err := p.AddGlobal(&ir.Global{Name: "arr", Size: 4}); err != nil {
		t.Fatal(err)
	}
	b := ir.NewFuncBuilder(p, "main", 0)
	base := b.GlobalAddr("arr")
	off := b.Const(offset)
	at := b.BinOp(ir.BinAdd, base, off)
	v, _ := b.Load(at, "arr[off]")
	b.RetVal(v)
	finish(t, b)
	mustLink(t, p)
	return p
}

func TestMemSafetyLoadInBounds(t *testing.T) {
	m := NewMachine(buildOOB(t, 3), memmodel.SC, nil)
	runAll(t, m, 1000)
	if m.Violation() != nil {
		t.Errorf("in-bounds load flagged: %v", m.Violation())
	}
}

func TestMemSafetyLoadOutOfBounds(t *testing.T) {
	m := NewMachine(buildOOB(t, 4), memmodel.SC, nil)
	for i := 0; i < 100 && !m.Done(); i++ {
		m.StepThread(0)
	}
	v := m.Violation()
	if v == nil || v.Kind != VMemSafety {
		t.Fatalf("out-of-bounds load not caught: %v", v)
	}
}

func TestMemSafetyNullDeref(t *testing.T) {
	p := ir.NewProgram()
	b := ir.NewFuncBuilder(p, "main", 0)
	z := b.Const(0)
	v, _ := b.Load(z, "*NULL")
	b.RetVal(v)
	finish(t, b)
	mustLink(t, p)
	m := NewMachine(p, memmodel.SC, nil)
	for i := 0; i < 100 && !m.Done(); i++ {
		m.StepThread(0)
	}
	v2 := m.Violation()
	if v2 == nil || v2.Kind != VMemSafety {
		t.Fatalf("null deref not caught: %v", v2)
	}
}

func TestUseAfterFreeCaughtAtFlush(t *testing.T) {
	// Store to heap memory, free it before the buffer flushes: the flush
	// must fault (the paper: free does not flush write buffers).
	p := ir.NewProgram()
	b := ir.NewFuncBuilder(p, "main", 0)
	sz := b.Const(2)
	ptr := b.Alloc(sz)
	val := b.Const(99)
	b.Store(ptr, val, "*p")
	b.Free(ptr)
	b.Ret()
	finish(t, b)
	mustLink(t, p)
	m := NewMachine(p, memmodel.PSO, nil)
	// Execute everything without flushing.
	stepUntil(t, m, 0, func() bool { return m.Thread(0).Finished() })
	if m.Violation() != nil {
		t.Fatalf("premature violation: %v", m.Violation())
	}
	// Now drain: the pending store hits freed memory.
	pend := m.Thread(0).Buffers().PendingAddrs()
	if len(pend) == 0 {
		t.Fatal("store was not buffered")
	}
	m.FlushOne(0, pend[0])
	v := m.Violation()
	if v == nil || v.Kind != VMemSafety {
		t.Fatalf("use-after-free at flush not caught: %v", v)
	}
}

func TestDoubleFreeCaught(t *testing.T) {
	p := ir.NewProgram()
	b := ir.NewFuncBuilder(p, "main", 0)
	sz := b.Const(1)
	ptr := b.Alloc(sz)
	b.Free(ptr)
	b.Free(ptr)
	b.Ret()
	finish(t, b)
	mustLink(t, p)
	m := NewMachine(p, memmodel.SC, nil)
	for i := 0; i < 100 && !m.Done(); i++ {
		m.StepThread(0)
	}
	v := m.Violation()
	if v == nil || v.Kind != VMemSafety {
		t.Fatalf("double free not caught: %v", v)
	}
}

func TestAllocGuardGapCatchesOverflow(t *testing.T) {
	p := ir.NewProgram()
	b := ir.NewFuncBuilder(p, "main", 0)
	sz := b.Const(2)
	ptr := b.Alloc(sz)
	two := b.Const(2)
	past := b.BinOp(ir.BinAdd, ptr, two)
	v := b.Const(1)
	b.Store(past, v, "p[2] overflow")
	b.Ret()
	finish(t, b)
	mustLink(t, p)
	m := NewMachine(p, memmodel.SC, nil)
	for i := 0; i < 100 && !m.Done(); i++ {
		m.StepThread(0)
	}
	viol := m.Violation()
	if viol == nil || viol.Kind != VMemSafety {
		t.Fatalf("one-past-end heap store not caught: %v", viol)
	}
}

// --- assertions, history, fork/join ---

func TestAssertFailure(t *testing.T) {
	p := ir.NewProgram()
	b := ir.NewFuncBuilder(p, "main", 0)
	z := b.Const(0)
	b.Assert(z, "must not be zero")
	b.Ret()
	finish(t, b)
	mustLink(t, p)
	m := NewMachine(p, memmodel.SC, nil)
	for i := 0; i < 100 && !m.Done(); i++ {
		m.StepThread(0)
	}
	v := m.Violation()
	if v == nil || v.Kind != VAssert || v.Msg != "must not be zero" {
		t.Fatalf("assert not reported: %v", v)
	}
}

func TestHistoryRecording(t *testing.T) {
	p := ir.NewProgram()
	if err := p.AddGlobal(&ir.Global{Name: "q", Size: 1}); err != nil {
		t.Fatal(err)
	}
	// operation put(v) stores v; operation take() returns it.
	pb := ir.NewFuncBuilder(p, "put", 1).MarkOperation()
	qa := pb.GlobalAddr("q")
	pb.Store(qa, pb.Param(0), "q")
	pb.Ret()
	finish(t, pb)
	tb := ir.NewFuncBuilder(p, "take", 0).MarkOperation()
	ta := tb.GlobalAddr("q")
	v, _ := tb.Load(ta, "q")
	tb.RetVal(v)
	finish(t, tb)

	mb := ir.NewFuncBuilder(p, "main", 0)
	arg := mb.Const(7)
	mb.Call(ir.NoReg, "put", arg)
	got := mb.NewReg()
	mb.Call(got, "take")
	mb.RetVal(got)
	finish(t, mb)
	mustLink(t, p)

	m := NewMachine(p, memmodel.TSO, nil)
	runAll(t, m, 10000)
	h := m.History()
	if len(h) != 4 {
		t.Fatalf("history has %d events, want 4: %v", len(h), h)
	}
	want := []struct {
		kind EventKind
		op   string
	}{
		{EventInvoke, "put"}, {EventResponse, "put"},
		{EventInvoke, "take"}, {EventResponse, "take"},
	}
	for i, w := range want {
		if h[i].Kind != w.kind || h[i].Op != w.op {
			t.Errorf("event %d = %v, want %v %s", i, h[i], w.kind, w.op)
		}
	}
	if h[0].Args[0] != 7 {
		t.Errorf("put invoke args = %v, want [7]", h[0].Args)
	}
	if !h[3].HasRet || h[3].Ret != 7 {
		t.Errorf("take response = %v, want 7", h[3])
	}
	if m.ExitCode() != 7 {
		t.Errorf("exit = %d, want 7", m.ExitCode())
	}
}

func TestNestedOperationRecordedOnce(t *testing.T) {
	p := ir.NewProgram()
	if err := p.AddGlobal(&ir.Global{Name: "g", Size: 1}); err != nil {
		t.Fatal(err)
	}
	inner := ir.NewFuncBuilder(p, "inner", 0).MarkOperation()
	ga := inner.GlobalAddr("g")
	one := inner.Const(1)
	inner.Store(ga, one, "g")
	inner.Ret()
	finish(t, inner)
	outer := ir.NewFuncBuilder(p, "outer", 0).MarkOperation()
	outer.Call(ir.NoReg, "inner")
	outer.Ret()
	finish(t, outer)
	mb := ir.NewFuncBuilder(p, "main", 0)
	mb.Call(ir.NoReg, "outer")
	mb.Ret()
	finish(t, mb)
	mustLink(t, p)
	m := NewMachine(p, memmodel.SC, nil)
	runAll(t, m, 1000)
	h := m.History()
	if len(h) != 2 || h[0].Op != "outer" || h[1].Op != "outer" {
		t.Fatalf("nested operation leaked into history: %v", h)
	}
}

func TestForkJoinCounter(t *testing.T) {
	// Two workers each CAS-increment a counter 5 times; join; read 10.
	p := ir.NewProgram()
	if err := p.AddGlobal(&ir.Global{Name: "ctr", Size: 1}); err != nil {
		t.Fatal(err)
	}
	w := ir.NewFuncBuilder(p, "worker", 0)
	ca := w.GlobalAddr("ctr")
	i := w.Const(0)
	five := w.Const(5)
	one := w.Const(1)
	head := w.NextLabel()
	c := w.BinOp(ir.BinLt, i, five)
	body, exit := w.CondBrF(c)
	body.Here()
	retry := w.NextLabel()
	cur, _ := w.Load(ca, "ctr")
	next := w.BinOp(ir.BinAdd, cur, one)
	ok, _ := w.Cas(ca, cur, next, "inc")
	bad := w.Not(ok)
	again, done := w.CondBrF(bad)
	again.Here()
	w.Br(retry)
	done.Here()
	w.BinTo(i, ir.BinAdd, i, one)
	w.Br(head)
	exit.Here()
	w.Ret()
	finish(t, w)

	mb := ir.NewFuncBuilder(p, "main", 0)
	t1 := mb.Fork("worker")
	t2 := mb.Fork("worker")
	mb.Join(t1)
	mb.Join(t2)
	ra := mb.GlobalAddr("ctr")
	v, _ := mb.Load(ra, "ctr")
	mb.RetVal(v)
	finish(t, mb)
	mustLink(t, p)

	for _, model := range []memmodel.Model{memmodel.SC, memmodel.TSO, memmodel.PSO} {
		m := NewMachine(p, model, nil)
		runAll(t, m, 100000)
		if m.ExitCode() != 10 {
			t.Errorf("%v: counter = %d, want 10", model, m.ExitCode())
		}
	}
}

func TestJoinWaitsForBufferDrain(t *testing.T) {
	// Worker stores and returns without a fence; join must not complete
	// until the worker's buffer drains (JOIN rule: ∀x.B(u,x)=ε).
	p := ir.NewProgram()
	if err := p.AddGlobal(&ir.Global{Name: "x", Size: 1}); err != nil {
		t.Fatal(err)
	}
	w := ir.NewFuncBuilder(p, "worker", 0)
	xa := w.GlobalAddr("x")
	one := w.Const(1)
	w.Store(xa, one, "x")
	w.Ret()
	finish(t, w)
	mb := ir.NewFuncBuilder(p, "main", 0)
	tid := mb.Fork("worker")
	mb.Join(tid)
	ra := mb.GlobalAddr("x")
	v, _ := mb.Load(ra, "x")
	mb.RetVal(v)
	finish(t, mb)
	mustLink(t, p)

	m := NewMachine(p, memmodel.PSO, nil)
	stepUntil(t, m, 0, func() bool { return m.NumThreads() == 2 })
	stepUntil(t, m, 1, func() bool { return m.Thread(1).Finished() })
	// Worker finished but buffer pending: main must be blocked on join.
	if m.CanExec(0) {
		t.Fatal("join proceeded before the target's buffers drained")
	}
	// Finished thread still flushes via StepThread.
	if k := m.StepThread(1); k != StepFlush {
		t.Fatalf("finished thread step = %v, want flush", k)
	}
	if !m.CanExec(0) {
		t.Fatal("join not ready after drain")
	}
	runAll(t, m, 1000)
	if m.ExitCode() != 1 {
		t.Errorf("main read x = %d, want 1 after join", m.ExitCode())
	}
}

func TestSelf(t *testing.T) {
	p := ir.NewProgram()
	w := ir.NewFuncBuilder(p, "worker", 0)
	id := w.Self()
	w.Print(id)
	w.Ret()
	finish(t, w)
	mb := ir.NewFuncBuilder(p, "main", 0)
	mid := mb.Self()
	mb.Print(mid)
	t1 := mb.Fork("worker")
	mb.Join(t1)
	mb.Ret()
	finish(t, mb)
	mustLink(t, p)
	m := NewMachine(p, memmodel.SC, nil)
	runAll(t, m, 1000)
	out := m.Output()
	if len(out) != 2 || out[0] != 0 || out[1] != 1 {
		t.Errorf("self outputs = %v, want [0 1]", out)
	}
}

// --- observer ---

type recordingObserver struct {
	calls []struct {
		label ir.Label
		kind  AccessKind
		addr  int64
		pend  []PendingStore
	}
}

func (r *recordingObserver) OnSharedAccess(thread int, label ir.Label, kind AccessKind, addr int64, pend []PendingStore) {
	// The pend slice is scratch space reused across calls (see Observer);
	// copy it before retaining.
	r.calls = append(r.calls, struct {
		label ir.Label
		kind  AccessKind
		addr  int64
		pend  []PendingStore
	}{label, kind, addr, append([]PendingStore(nil), pend...)})
}

func TestObserverSeesPendingOther(t *testing.T) {
	// store x; store y; load x  — at the store to y, x is pending; at the
	// load of x, y (and x) are pending but only *other* addresses are
	// reported, so the load reports y's store.
	p := ir.NewProgram()
	for _, g := range []string{"x", "y"} {
		if err := p.AddGlobal(&ir.Global{Name: g, Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	b := ir.NewFuncBuilder(p, "main", 0)
	xa := b.GlobalAddr("x")
	ya := b.GlobalAddr("y")
	one := b.Const(1)
	sx := b.Store(xa, one, "x")
	sy := b.Store(ya, one, "y")
	v, _ := b.Load(xa, "x")
	b.RetVal(v)
	finish(t, b)
	mustLink(t, p)

	obs := &recordingObserver{}
	m := NewMachine(p, memmodel.PSO, obs)
	stepUntil(t, m, 0, func() bool { return m.Thread(0).Finished() })
	// Expect: store-x with no pending (skipped), store-y with pending x,
	// load-x with pending y.
	if len(obs.calls) != 2 {
		t.Fatalf("observer calls = %d, want 2: %+v", len(obs.calls), obs.calls)
	}
	c0 := obs.calls[0]
	if c0.kind != AccStore || len(c0.pend) != 1 || c0.pend[0].Label != sx {
		t.Errorf("store-y observation wrong: %+v (want pending store L%d)", c0, sx)
	}
	c1 := obs.calls[1]
	if c1.kind != AccLoad || len(c1.pend) != 1 || c1.pend[0].Label != sy {
		t.Errorf("load-x observation wrong: %+v (want pending store L%d)", c1, sy)
	}
	runAll(t, m, 1000)
}

func TestObserverSilentUnderSC(t *testing.T) {
	p := buildSB(t)
	obs := &recordingObserver{}
	m := NewMachine(p, memmodel.SC, obs)
	runAll(t, m, 10000)
	if len(obs.calls) != 0 {
		t.Errorf("observer called %d times under SC, want 0", len(obs.calls))
	}
}
