package spec

import (
	"encoding/binary"
	"reflect"
)

// The sequentialization search spends its time asking two questions per
// node: "have I failed from this (progress, spec state) before?" and
// "does this operation apply in this state, and what state results?".
//
// The automaton below compiles the answers: reachable spec states are
// interned once into dense int32 ids (the canonical clone is frozen and
// owned by the automaton), operations are interned on the fields Apply
// actually consults (Name, Args, Ret, HasRet), and each (state id, op id)
// transition is computed by clone+Apply exactly once and then served from
// a flat map. The DFS then walks integer ids, and its memo key is a
// comparable struct of (progress word, state id) — no per-node string
// allocation at all. Interning maps states with equal canonical keys to
// one id, so two search nodes share a memo entry exactly when their
// progress vectors and spec-state keys are equal.
//
// The automaton persists across checks on a reused Checker: state
// identity and transitions are history-independent facts about the
// specification, so a synthesis round that judges thousands of histories
// over the same data structure amortizes every Apply. It composes with
// the verdict-by-history cache upstream: that cache removes repeated
// *histories*, this one removes repeated *spec work* across distinct
// histories. testdata/verdicts.txt pins the verdicts.
//
// Capacity is bounded generationally: when the tables outgrow their caps
// the automaton is discarded between checks (never mid-search, which
// would invalidate ids held on the DFS stack) and relearned. A type
// guard resets it when a Checker is reused with a different
// specification type, since canonical keys are only unique within one
// type.
const (
	maxAutomatonStates = 1 << 15
	maxAutomatonTrans  = 1 << 17
)

// illegalTransition marks a cached (state, op) pair Apply rejected.
const illegalTransition = int32(-1)

type automaton struct {
	typ    reflect.Type     // spec type the tables were built for
	states []Sequential     // id -> frozen canonical state (never mutated)
	ids    map[string]int32 // canonical state key -> id
	ops    []Op             // id -> representative op (Args copied, stable)
	opIDs  map[string]int32 // canonical op key -> id
	trans  map[uint64]int32 // stateID<<32|opID -> next id, or illegalTransition
	keyBuf []byte
}

// ensure prepares the automaton for a check over spec type t, flushing
// the learned tables when the type changed or a size cap tripped.
func (a *automaton) ensure(t reflect.Type) {
	if a.ids == nil || a.typ != t ||
		len(a.states) > maxAutomatonStates || len(a.trans) > maxAutomatonTrans {
		a.reset(t)
	}
}

func (a *automaton) reset(t reflect.Type) {
	a.typ = t
	a.states = a.states[:0]
	a.ops = a.ops[:0]
	if a.ids == nil {
		a.ids = make(map[string]int32)
		a.opIDs = make(map[string]int32)
		a.trans = make(map[uint64]int32)
	} else {
		clear(a.ids)
		clear(a.opIDs)
		clear(a.trans)
	}
}

// intern returns the dense id of state, registering it (and taking
// ownership of it — it must never be mutated afterwards) when unseen.
// fresh reports whether ownership was taken; if false the caller still
// owns state and may recycle it.
func (a *automaton) intern(state Sequential) (id int32, fresh bool) {
	b := a.keyBuf[:0]
	if ka, ok := state.(keyAppender); ok {
		b = ka.appendKey(b)
	} else {
		b = append(b, state.Key()...)
	}
	a.keyBuf = b
	if id, ok := a.ids[string(b)]; ok {
		return id, false
	}
	id = int32(len(a.states))
	a.states = append(a.states, state)
	a.ids[string(b)] = id
	return id, true
}

// internOp returns the dense id of op's Apply-relevant projection. The
// stored representative deep-copies Args: callers hand in ops whose Args
// alias reused event buffers.
func (a *automaton) internOp(op Op) int32 {
	b := a.keyBuf[:0]
	b = binary.AppendUvarint(b, uint64(len(op.Name)))
	b = append(b, op.Name...)
	b = binary.AppendUvarint(b, uint64(len(op.Args)))
	for _, v := range op.Args {
		b = binary.AppendVarint(b, v)
	}
	if op.HasRet {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendVarint(b, op.Ret)
	a.keyBuf = b
	if id, ok := a.opIDs[string(b)]; ok {
		return id
	}
	id := int32(len(a.ops))
	rep := Op{Name: op.Name, Ret: op.Ret, HasRet: op.HasRet}
	if len(op.Args) > 0 {
		rep.Args = append([]int64(nil), op.Args...)
	}
	a.ops = append(a.ops, rep)
	a.opIDs[string(b)] = id
	return id
}

// step returns the successor of state sid under op oid, computing and
// caching the transition on first demand. ok is false when the op is
// illegal in the state. c supplies the clone/recycle free list.
func (a *automaton) step(c *Checker, sid, oid int32) (next int32, ok bool) {
	k := uint64(uint32(sid))<<32 | uint64(uint32(oid))
	if next, hit := a.trans[k]; hit {
		return next, next != illegalTransition
	}
	st := c.clone(a.states[sid])
	if !st.Apply(a.ops[oid]) {
		c.recycle(st)
		a.trans[k] = illegalTransition
		return 0, false
	}
	nid, fresh := a.intern(st)
	if !fresh {
		c.recycle(st)
	}
	a.trans[k] = nid
	return nid, true
}

// autoKey memoizes one failed search node: the per-thread progress
// vector's word (see compileProgress) plus the interned spec-state id.
type autoKey struct {
	prog  uint64
	state int32
}

// compileProgress fills c.strides with the mixed-radix strides of the
// current queue partition (stride[i] = Π_{j<i} (len(queue_j)+1)), so a
// progress vector packs into one uint64. When the product of the radixes
// exceeds 2^62 the packing could collide, so the check sets c.wide and
// the progress word becomes a dense id interned per distinct vector
// (internProgress) instead.
func (c *Checker) compileProgress() {
	c.strides = c.strides[:0]
	c.wide = false
	total := uint64(1)
	for i := range c.queues {
		c.strides = append(c.strides, total)
		n := uint64(len(c.queues[i])) + 1
		if total > (1<<62)/n {
			c.wide = true
		}
		total *= n
	}
	if !c.wide {
		return
	}
	if c.progIDs == nil {
		c.progIDs = make(map[string]uint64)
	} else {
		clear(c.progIDs)
	}
}

// internProgress returns the dense id of the current progress vector,
// registering it when unseen.
func (c *Checker) internProgress() uint64 {
	b := c.keyBuf[:0]
	for _, i := range c.idx {
		b = binary.AppendUvarint(b, uint64(i))
	}
	c.keyBuf = b
	id, ok := c.progIDs[string(b)]
	if !ok {
		id = uint64(len(c.progIDs))
		c.progIDs[string(b)] = id
	}
	return id
}

// dfsAuto explores the next operation choices from spec state sid. imemo
// records the failed (progress, state) nodes.
func (c *Checker) dfsAuto(sid int32) bool {
	done := true
	var prog uint64
	for i := range c.queues {
		if c.idx[i] < len(c.queues[i]) {
			done = false
		}
		prog += uint64(c.idx[i]) * c.strides[i]
	}
	if done {
		return true
	}
	if c.wide {
		prog = c.internProgress()
	}
	mk := autoKey{prog: prog, state: sid}
	if c.imemo[mk] {
		return false // known dead end
	}
	for i := range c.queues {
		if c.idx[i] >= len(c.queues[i]) {
			continue
		}
		op := c.queues[i][c.idx[i]]
		if c.realTime && !minimalInRealTime(c.queues, c.idx, i, op) {
			continue
		}
		next, ok := c.aut.step(c, sid, c.oqueues[i][c.idx[i]])
		if !ok {
			continue
		}
		c.idx[i]++
		hit := c.dfsAuto(next)
		c.idx[i]--
		if hit {
			return true
		}
	}
	c.imemo[mk] = true
	return false
}
