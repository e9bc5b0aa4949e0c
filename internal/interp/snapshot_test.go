package interp

import (
	"encoding/hex"
	"reflect"
	"testing"

	"dfence/internal/ir"
	"dfence/internal/memmodel"
)

// wildAddr is far outside every program's memory: a store to it is
// buffered in the per-address models' out-of-range fallback map and
// faults when it flushes.
const wildAddr = 1 << 20

// machineState is everything CopyFrom must reproduce, read through the
// public surface and deep-copied so later mutation of the machine cannot
// reach it.
type machineState struct {
	Key     string
	History []Event
	Bufs    [][]memmodel.Entry
	Epochs  []int32
	Defq    [][]DeferredLoad
	Output  []int64
	Steps   int
	Touched uint64
	Exit    int64
}

func stateOf(m *Machine) machineState {
	s := machineState{
		Key:     hex.EncodeToString(m.AppendStateKey(nil)),
		Output:  append([]int64(nil), m.Output()...),
		Steps:   m.Steps(),
		Touched: m.Result(false).FenceTouched,
		Exit:    m.ExitCode(),
	}
	for _, e := range m.History() {
		e.Args = append([]int64(nil), e.Args...)
		s.History = append(s.History, e)
	}
	for tid := 0; tid < m.NumThreads(); tid++ {
		th := m.Thread(tid)
		s.Bufs = append(s.Bufs, th.Buffers().All())
		s.Epochs = append(s.Epochs, th.Buffers().Epoch())
		s.Defq = append(s.Defq, append([]DeferredLoad(nil), th.DeferredLoads()...))
	}
	return s
}

// buildScrambler returns a program that, once run, leaves a machine's
// pooled storage full of values no test program produces: forked and
// called operations with arguments 97–99, buffered stores to three globals,
// an allocation, and a faulting store to wildAddr.
func buildScrambler(t *testing.T) *Compiled {
	t.Helper()
	p := ir.NewProgram()
	for _, g := range []string{"a", "b", "c"} {
		if err := p.AddGlobal(&ir.Global{Name: g, Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	bb := ir.NewFuncBuilder(p, "bump", 1).MarkOperation()
	for _, g := range []string{"a", "b", "c"} {
		bb.Store(bb.GlobalAddr(g), bb.Param(0), g)
	}
	bb.Ret()
	finish(t, bb)
	mb := ir.NewFuncBuilder(p, "main", 0)
	h1 := mb.Fork("bump", mb.Const(99))
	mb.Call(ir.NoReg, "bump", mb.Const(98))
	h2 := mb.Fork("bump", mb.Const(97))
	mb.Join(h1)
	mb.Join(h2)
	mb.Alloc(mb.Const(4))
	mb.Store(mb.Const(wildAddr), mb.Const(96), "wild")
	mb.Ret()
	finish(t, mb)
	mustLink(t, p)
	return Compile(p)
}

// TestCopyFromIndependent checks that CopyFrom yields a faithful,
// independent copy: the copy starts in the source's exact state, stepping
// and reusing the copy never changes the source, stepping and reusing the
// source never changes the copy, and both follow identical futures under
// identical schedules. Each case takes the source to a state holding one
// kind of pooled storage, then sends the copy and the source down
// different transitions.
func TestCopyFromIndependent(t *testing.T) {
	scrambler := buildScrambler(t)
	cases := []struct {
		name  string
		model memmodel.Model
		// build returns the program and the fences to watch.
		build func(t *testing.T) (*ir.Program, []ir.Label)
		// prep takes the fresh source to the state under test.
		prep func(t *testing.T, m *Machine)
		// copyMove and srcMove are the diverging transitions.
		copyMove, srcMove func(m *Machine)
	}{
		{
			name:  "pso-epoch-queues",
			model: memmodel.PSO,
			build: func(t *testing.T) (*ir.Program, []ir.Label) {
				p := ir.NewProgram()
				for _, g := range []string{"x", "y"} {
					if err := p.AddGlobal(&ir.Global{Name: g, Size: 1}); err != nil {
						t.Fatal(err)
					}
				}
				b := ir.NewFuncBuilder(p, "main", 0)
				xa, ya := b.GlobalAddr("x"), b.GlobalAddr("y")
				b.Store(xa, b.Const(1), "x")
				b.Store(ya, b.Const(2), "y")
				fence := b.Fence(ir.FenceStoreStore)
				b.Store(xa, b.Const(3), "x")
				v, _ := b.Load(xa, "x")
				b.Print(v)
				b.Ret()
				finish(t, b)
				mustLink(t, p)
				return p, []ir.Label{fence}
			},
			prep: func(t *testing.T, m *Machine) {
				stepUntil(t, m, 0, func() bool { return m.Thread(0).Buffers().Len() == 3 })
				if m.Thread(0).Buffers().Epoch() != 1 || m.Result(false).FenceTouched != 1 {
					t.Fatalf("epoch = %d, touched = %b; want 1 and 1 after the watched st-st barrier",
						m.Thread(0).Buffers().Epoch(), m.Result(false).FenceTouched)
				}
			},
			copyMove: func(m *Machine) { m.FlushOne(0, m.Thread(0).Buffers().FlushableAddrs()[1]) },
			srcMove:  func(m *Machine) { m.FlushOne(0, m.Thread(0).Buffers().FlushableAddrs()[0]) },
		},
		{
			name:  "pso-out-of-range-address",
			model: memmodel.PSO,
			build: func(t *testing.T) (*ir.Program, []ir.Label) {
				p := ir.NewProgram()
				if err := p.AddGlobal(&ir.Global{Name: "x", Size: 1}); err != nil {
					t.Fatal(err)
				}
				b := ir.NewFuncBuilder(p, "main", 0)
				b.Store(b.Const(wildAddr), b.Const(5), "wild")
				b.Store(b.GlobalAddr("x"), b.Const(6), "x")
				b.Ret()
				finish(t, b)
				mustLink(t, p)
				return p, nil
			},
			prep: func(t *testing.T, m *Machine) {
				stepUntil(t, m, 0, func() bool { return m.Thread(0).Buffers().Len() == 2 })
			},
			copyMove: func(m *Machine) { m.FlushOne(0, wildAddr) },
			srcMove:  func(m *Machine) { m.FlushOne(0, m.Thread(0).Buffers().FlushableAddrs()[1]) },
		},
		{
			name:  "rmo-deferred-queue",
			model: memmodel.RMO,
			build: func(t *testing.T) (*ir.Program, []ir.Label) {
				p := ir.NewProgram()
				for i, g := range []string{"x", "y"} {
					if err := p.AddGlobal(&ir.Global{Name: g, Size: 1, Init: []int64{int64(10 + i)}}); err != nil {
						t.Fatal(err)
					}
				}
				b := ir.NewFuncBuilder(p, "main", 0)
				r1, _ := b.Load(b.GlobalAddr("x"), "x")
				r2, _ := b.Load(b.GlobalAddr("y"), "y")
				b.Print(r1)
				b.Print(r2)
				b.Ret()
				finish(t, b)
				mustLink(t, p)
				return p, nil
			},
			prep: func(t *testing.T, m *Machine) {
				stepUntil(t, m, 0, func() bool { return m.DeferredCount(0) == 2 })
			},
			copyMove: func(m *Machine) { m.ResolveOne(0, 1) },
			srcMove:  func(m *Machine) { m.ResolveOne(0, 0) },
		},
		{
			name:  "fork-grows-thread-table",
			model: memmodel.TSO,
			build: func(t *testing.T) (*ir.Program, []ir.Label) {
				p := ir.NewProgram()
				if err := p.AddGlobal(&ir.Global{Name: "x", Size: 1}); err != nil {
					t.Fatal(err)
				}
				w := ir.NewFuncBuilder(p, "worker", 0)
				w.Store(w.GlobalAddr("x"), w.Const(1), "x")
				w.Ret()
				finish(t, w)
				b := ir.NewFuncBuilder(p, "main", 0)
				b.Store(b.GlobalAddr("x"), b.Const(2), "x")
				h := b.Fork("worker")
				b.Join(h)
				b.Ret()
				finish(t, b)
				mustLink(t, p)
				return p, nil
			},
			prep: func(t *testing.T, m *Machine) {
				exec1(t, m, 0) // the GlobalAddr
				exec1(t, m, 0) // the Const
				exec1(t, m, 0) // the store, buffered
				if m.NumThreads() != 1 || !m.CanFlush(0) {
					t.Fatalf("want one thread with a buffered store, got %d threads", m.NumThreads())
				}
			},
			// The copy forks (its forced flush first, then the fork itself);
			// the source flushes instead and stays single-threaded.
			copyMove: func(m *Machine) { m.StepThread(0); m.StepThread(0) },
			srcMove:  func(m *Machine) { m.FlushOne(0, 0) },
		},
		{
			name:  "heap-units",
			model: memmodel.SC,
			build: func(t *testing.T) (*ir.Program, []ir.Label) {
				p := ir.NewProgram()
				if err := p.AddGlobal(&ir.Global{Name: "x", Size: 1}); err != nil {
					t.Fatal(err)
				}
				b := ir.NewFuncBuilder(p, "main", 0)
				h := b.Alloc(b.Const(2))
				b.Store(h, b.Const(4), "h")
				b.Free(h)
				b.Ret()
				finish(t, b)
				mustLink(t, p)
				return p, nil
			},
			prep: func(t *testing.T, m *Machine) {
				exec1(t, m, 0) // the Const
				exec1(t, m, 0) // the Alloc
			},
			// The copy runs on and frees the unit; the source stores into
			// it instead.
			copyMove: func(m *Machine) { drive(m, 1000) },
			srcMove:  func(m *Machine) { m.StepThread(0); m.StepThread(0) },
		},
		{
			name:  "operation-call-history-args",
			model: memmodel.PSO,
			build: func(t *testing.T) (*ir.Program, []ir.Label) {
				p := ir.NewProgram()
				if err := p.AddGlobal(&ir.Global{Name: "q", Size: 1}); err != nil {
					t.Fatal(err)
				}
				put := ir.NewFuncBuilder(p, "put", 2).MarkOperation()
				put.Store(put.GlobalAddr("q"), put.Param(1), "q")
				put.Ret()
				finish(t, put)
				b := ir.NewFuncBuilder(p, "main", 0)
				b.Call(ir.NoReg, "put", b.Const(7), b.Const(8))
				b.Call(ir.NoReg, "put", b.Const(9), b.Const(10))
				b.Ret()
				finish(t, b)
				mustLink(t, p)
				return p, nil
			},
			prep: func(t *testing.T, m *Machine) {
				stepUntil(t, m, 0, func() bool { return len(m.History()) == 1 })
				if got := m.History()[0].Args; !reflect.DeepEqual(got, []int64{7, 8}) {
					t.Fatalf("put args = %v, want [7 8]", got)
				}
			},
			copyMove: func(m *Machine) { drive(m, 1000) },
			srcMove:  func(m *Machine) { m.StepThread(0) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, watch := tc.build(t)
			c, err := CompileWatched(prog, watch)
			if err != nil {
				t.Fatal(err)
			}
			src := &Machine{}
			src.Reset(c, tc.model, nil)
			tc.prep(t, src)
			want := stateOf(src)

			// A receiver dirtied by another program: more threads, history
			// args, buffered and wild stores in its pooled storage.
			var cp Machine
			cp.Reset(scrambler, tc.model, nil)
			drive(&cp, 25)
			cp.CopyFrom(src)
			if got := stateOf(&cp); !reflect.DeepEqual(got, want) {
				t.Fatalf("copy differs from its source:\n got %+v\nwant %+v", got, want)
			}

			// Step the copy away, run it out, and reuse its storage: the
			// source must not move.
			tc.copyMove(&cp)
			drive(&cp, 1000)
			cp.Reset(scrambler, tc.model, nil)
			drive(&cp, 1000)
			if got := stateOf(src); !reflect.DeepEqual(got, want) {
				t.Fatalf("stepping the copy changed the source:\n got %+v\nwant %+v", got, want)
			}

			// And the other way round.
			cp.CopyFrom(src)
			tc.srcMove(src)
			drive(src, 1000)
			src.Reset(scrambler, tc.model, nil)
			drive(src, 1000)
			if got := stateOf(&cp); !reflect.DeepEqual(got, want) {
				t.Fatalf("stepping the source changed the copy:\n got %+v\nwant %+v", got, want)
			}

			// Same schedule from the copied state, same future.
			fresh := &Machine{}
			fresh.Reset(c, tc.model, nil)
			tc.prep(t, fresh)
			drive(fresh, 1000)
			drive(&cp, 1000)
			if got, want := stateOf(&cp), stateOf(fresh); !reflect.DeepEqual(got, want) {
				t.Fatalf("copy's future differs from the original's:\n got %+v\nwant %+v", got, want)
			}
			if !reflect.DeepEqual(cp.Violation(), fresh.Violation()) {
				t.Fatalf("violation: copy %v, original %v", cp.Violation(), fresh.Violation())
			}
		})
	}
}
