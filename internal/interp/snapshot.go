// State copying and fingerprinting for exhaustive-exploration clients. The
// brute-force interleaving enumerator (internal/proggen) keeps one Machine
// per search depth: it copies a decision point's state into the next
// depth's machine (CopyFrom), applies one transition there, and prunes any
// state it has already expanded, which needs a canonical byte encoding of
// *all* state that can influence either future transitions or the
// recorded outcome (AppendStateKey). Both live here because frames,
// buffers, and the memory image are unexported.
package interp

import "encoding/binary"

// CopyFrom makes m an independent deep copy of src: the same compiled
// program, model, observer, memory image, live units, output, history,
// thread table (frames, registers, store buffers, deferred-load queues,
// operation depth), step count, violation, exit code, and touched-fence
// mask. m's storage is reused, as Reset reuses it, and nothing in m
// aliases src's mutable state afterwards — history arguments are re-homed
// into m's own argument arena — so stepping either machine leaves the
// other unchanged. The violation is shared: a *Violation is never mutated
// once recorded.
func (m *Machine) CopyFrom(src *Machine) {
	m.c = src.c
	m.model = src.model
	m.obs = src.obs
	m.steps = src.steps
	m.violated = src.violated
	m.exitCode = src.exitCode
	m.touched = src.touched
	m.mem = append(m.mem[:0], src.mem...)
	m.units.units = append(m.units.units[:0], src.units.units...)
	m.output = append(m.output[:0], src.output...)

	for i := range m.argBlocks {
		m.argBlocks[i] = m.argBlocks[i][:0]
	}
	m.argCur = 0
	m.history = append(m.history[:0], src.history...)
	for i := range m.history {
		if e := &m.history[i]; len(e.Args) > 0 {
			args := m.allocArgs(len(e.Args))
			copy(args, e.Args)
			e.Args = args
		}
	}

	m.threads = m.threads[:0]
	for i := range src.threads {
		s := &src.threads[i]
		t := m.newThread()
		t.frames = append(t.frames, s.frames...)
		t.regs = append(t.regs, s.regs...)
		t.defq = append(t.defq, s.defq...)
		t.opDepth = s.opDepth
		t.buf.CopyFrom(&s.buf)
	}
}

// keyNoExclude is an address no store can have, so AppendPendingOther
// returns every pending entry (the same sentinel memmodel.Buffers.All
// uses).
const keyNoExclude = int64(-1) << 62

// AppendStateKey appends a canonical encoding of the machine's current
// state to dst and returns the extended slice. Two machines running the
// same Compiled program that produce equal keys are in indistinguishable
// states: every future schedule from one yields the same transitions,
// outputs, and violations as from the other. The key covers the memory
// image, live allocation units, accumulated output and history, the exit
// code, every thread's frame stack (function, pc, registers, return
// slot), every thread's store buffers in canonical drain order (with
// store-store barrier epochs), and every thread's deferred-load queue. It
// deliberately excludes the step counter and the watched-fence bitmask —
// neither affects future behavior, and including the former would defeat
// deduplication entirely (different-length paths reach equal states).
//
// The encoding is length-prefixed per section, so distinct states cannot
// collide. Keys are only comparable between machines executing the same
// *Compiled value (function indices are compile-order positions).
func (m *Machine) AppendStateKey(dst []byte) []byte {
	dst = append(dst, byte(m.model))
	if m.violated != nil {
		dst = append(dst, 1, byte(m.violated.Kind))
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendVarint(dst, m.exitCode)
	dst = binary.AppendUvarint(dst, uint64(len(m.mem)))
	for _, v := range m.mem {
		dst = binary.AppendVarint(dst, v)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.units.units)))
	for _, u := range m.units.units {
		dst = binary.AppendVarint(dst, u.base)
		dst = binary.AppendVarint(dst, u.size)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.output)))
	for _, v := range m.output {
		dst = binary.AppendVarint(dst, v)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.history)))
	for i := range m.history {
		e := &m.history[i]
		dst = append(dst, byte(e.Kind))
		dst = binary.AppendVarint(dst, int64(e.Thread))
		dst = binary.AppendUvarint(dst, uint64(len(e.Op)))
		dst = append(dst, e.Op...)
		dst = binary.AppendUvarint(dst, uint64(len(e.Args)))
		for _, a := range e.Args {
			dst = binary.AppendVarint(dst, a)
		}
		if e.HasRet {
			dst = append(dst, 1)
			dst = binary.AppendVarint(dst, e.Ret)
		} else {
			dst = append(dst, 0)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.threads)))
	for ti := range m.threads {
		t := &m.threads[ti]
		dst = binary.AppendVarint(dst, int64(t.opDepth))
		dst = binary.AppendUvarint(dst, uint64(len(t.frames)))
		for i := range t.frames {
			fr := &t.frames[i]
			dst = binary.AppendUvarint(dst, uint64(m.funcIndex(fr.fn)))
			dst = binary.AppendVarint(dst, int64(fr.pc))
			dst = binary.AppendVarint(dst, int64(fr.retDst))
			if fr.isOp {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
			regs := t.frameRegs(fr)
			dst = binary.AppendUvarint(dst, uint64(len(regs)))
			for _, r := range regs {
				dst = binary.AppendVarint(dst, r)
			}
		}
		// Buffers in canonical drain order (TSO: FIFO; per-address models:
		// per-address FIFOs grouped oldest-address-first) — the same order
		// flushes commit in, so equal encodings mean equal flush behavior.
		// Entry epochs are included: two buffers with equal content but a
		// store-store barrier between different entries flush differently.
		ents := t.buf.AppendPendingOther(m.entScratch[:0], keyNoExclude)
		m.entScratch = ents[:0]
		dst = binary.AppendUvarint(dst, uint64(len(ents)))
		for _, e := range ents {
			dst = binary.AppendVarint(dst, e.Addr)
			dst = binary.AppendVarint(dst, e.Val)
			dst = binary.AppendVarint(dst, int64(e.Label))
			dst = binary.AppendVarint(dst, int64(e.Epoch))
		}
		// Deferred loads in issue order: the queue determines which resolve
		// transitions exist and what they will write where.
		dst = binary.AppendUvarint(dst, uint64(len(t.defq)))
		for _, d := range t.defq {
			dst = binary.AppendVarint(dst, int64(d.Label))
			dst = binary.AppendVarint(dst, d.Addr)
			dst = binary.AppendVarint(dst, int64(d.Dst))
		}
	}
	return dst
}

// funcIndex resolves a frame's function back to its compile-order index.
// Linear scan: function counts are tiny and this runs off the execution
// hot path (only during state-key construction).
func (m *Machine) funcIndex(f *cfunc) int {
	for i := range m.c.funcs {
		if &m.c.funcs[i] == f {
			return i
		}
	}
	return -1
}
