package spec

import (
	"reflect"

	"dfence/internal/interp"
)

// Checker is a reusable history checker: it owns the sequentialization
// search's compiled automaton and memo table, queue partition, key
// scratch, recycled spec states, and operation buffers, so a caller that judges many histories
// (the synthesis engine judges thousands per round) pays the allocations
// once instead of per history. The zero value is ready to use. A Checker
// is not safe for concurrent use — the engine gives each batch worker its
// own (see the worker-ownership invariant in internal/sched).
//
// The package-level CompleteOps, RelaxStealAborts, IsSequentiallyConsistent,
// IsLinearizable and Check functions run on a throwaway Checker.
type Checker struct {
	queues   [][]Op
	idx      []int
	keyBuf   []byte       // progress-vector key scratch (internProgress)
	free     []Sequential // dead states recycled by clone/recycle
	realTime bool

	// search state (automaton.go)
	aut     automaton
	imemo   map[autoKey]bool  // failed (progress word, state id) pairs
	strides []uint64          // mixed-radix strides of the queue partition
	wide    bool              // strides overflow: progress words are interned
	progIDs map[string]uint64 // interned progress vectors when wide
	oidbuf  []int32           // interned op ids, flat, parallel to qbuf
	oqueues [][]int32         // per-thread views into oidbuf, parallel to queues

	// partition scratch (check)
	qbuf   []Op
	counts []int
	offs   []int

	// operation-extraction scratch (CompleteOps / RelaxStealAborts)
	opsBuf   []Op
	relaxBuf []Op
	pend     [][]int // per-thread FIFO of indices into opsBuf
}

// CompleteOps pairs invoke/response events into completed operations
// (see the package-level CompleteOps) in the checker's reused buffers.
// The returned slice aliases checker-owned storage and is valid until the
// next CompleteOps call.
func (c *Checker) CompleteOps(events []interp.Event) []Op {
	for i := range c.pend {
		c.pend[i] = c.pend[i][:0]
	}
	ops := c.opsBuf[:0]
	for i, e := range events {
		switch e.Kind {
		case interp.EventInvoke:
			ops = append(ops, Op{
				Thread: e.Thread,
				Name:   e.Op,
				Args:   e.Args,
				Inv:    i,
				Res:    -1,
			})
			for len(c.pend) <= e.Thread {
				c.pend = append(c.pend, nil)
			}
			c.pend[e.Thread] = append(c.pend[e.Thread], len(ops)-1)
		case interp.EventResponse:
			if e.Thread >= len(c.pend) || len(c.pend[e.Thread]) == 0 {
				continue // stray response; ignore defensively
			}
			idx := c.pend[e.Thread][0]
			c.pend[e.Thread] = c.pend[e.Thread][1:]
			ops[idx].Ret = e.Ret
			ops[idx].HasRet = e.HasRet
			ops[idx].Res = i
		}
	}
	// Drop incomplete ops (in place: the write index trails the read).
	out := ops[:0]
	for _, o := range ops {
		if o.Res >= 0 {
			out = append(out, o)
		}
	}
	c.opsBuf = ops
	return out
}

// RelaxStealAborts relaxes contended empty steals (see the package-level
// RelaxStealAborts) into the checker's reused output buffer. Partners are
// scanned in the unmodified input, so two mutually overlapping empty
// steals both relax. The returned slice is valid until the next
// RelaxStealAborts call.
func (c *Checker) RelaxStealAborts(ops []Op) []Op {
	out := append(c.relaxBuf[:0], ops...)
	c.relaxBuf = out
	for i := range out {
		o := &out[i]
		if o.Name != "steal" || !o.HasRet || o.Ret != EmptyVal {
			continue
		}
		for j := range ops {
			if j == i {
				continue
			}
			p := &ops[j]
			if p.Name != "steal" && p.Name != "take" {
				continue
			}
			// overlap: neither completes before the other starts
			if p.Res > o.Inv && o.Res > p.Inv {
				o.Name = "steal_abort"
				break
			}
		}
	}
	return out
}

// Check applies the criterion to a history (see the package-level Check)
// with the checker's reused search state.
func (c *Checker) Check(crit Criterion, ops []Op, newSpec func() Sequential, checkGarbage bool) bool {
	if checkGarbage && !NoGarbage(ops) {
		return false
	}
	switch crit {
	case MemorySafety:
		return true
	case SeqConsistency:
		return c.check(ops, newSpec, false)
	case Linearizability:
		return c.check(ops, newSpec, true)
	}
	return true
}

// check partitions ops per thread (a stable counting partition into the
// reused qbuf — the alloc-free equivalent of PerThread) and runs the
// memoized sequentialization DFS over the compiled automaton.
func (c *Checker) check(ops []Op, newSpec func() Sequential, realTime bool) bool {
	maxTid := -1
	for i := range ops {
		if ops[i].Thread > maxTid {
			maxTid = ops[i].Thread
		}
	}
	c.counts = c.counts[:0]
	c.offs = c.offs[:0]
	for t := 0; t <= maxTid; t++ {
		c.counts = append(c.counts, 0)
		c.offs = append(c.offs, 0)
	}
	for i := range ops {
		c.counts[ops[i].Thread]++
	}
	for t, off := 0, 0; t <= maxTid; t++ {
		c.offs[t] = off
		off += c.counts[t]
	}
	if cap(c.qbuf) < len(ops) {
		c.qbuf = make([]Op, len(ops))
	}
	c.qbuf = c.qbuf[:len(ops)]
	for i := range ops {
		t := ops[i].Thread
		c.qbuf[c.offs[t]] = ops[i]
		c.offs[t]++
	}
	c.queues = c.queues[:0]
	c.idx = c.idx[:0]
	for t, start := 0, 0; t <= maxTid; t++ {
		n := c.counts[t]
		if n == 0 {
			continue
		}
		c.queues = append(c.queues, c.qbuf[start:start+n])
		c.idx = append(c.idx, 0)
		start += n
	}
	c.realTime = realTime
	c.compileProgress()
	init := newSpec()
	c.aut.ensure(reflect.TypeOf(init))
	// Intern each queue's ops once; the DFS then only touches ids.
	c.oidbuf = c.oidbuf[:0]
	for _, q := range c.queues {
		for i := range q {
			c.oidbuf = append(c.oidbuf, c.aut.internOp(q[i]))
		}
	}
	c.oqueues = c.oqueues[:0]
	for off, i := 0, 0; i < len(c.queues); i++ {
		n := len(c.queues[i])
		c.oqueues = append(c.oqueues, c.oidbuf[off:off+n])
		off += n
	}
	sid, fresh := c.aut.intern(init)
	if !fresh {
		c.recycle(init)
	}
	if c.imemo == nil {
		c.imemo = make(map[autoKey]bool)
	} else {
		clear(c.imemo) // per-check: progress packing depends on the queues
	}
	return c.dfsAuto(sid)
}
