// Package spec implements DFENCE's correctness specifications: extraction
// of operation histories from executions, executable sequential
// specifications of the analyzed data structures, and the two history
// criteria of the paper — operation-level sequential consistency and
// linearizability (§5.2, Specifications; Herlihy & Shavit Ch. 3.4–3.5).
//
// Operation-level sequential consistency: the history has some
// interleaving, preserving each thread's program order, that the
// sequential specification accepts.
//
// Linearizability: additionally, the interleaving must preserve the
// real-time order between non-overlapping operations.
package spec

import (
	"fmt"
	"strings"

	"dfence/internal/interp"
)

// EmptyVal is the conventional EMPTY return value used by the benchmark
// algorithms (take/steal/dequeue on an empty container).
const EmptyVal = -1

// Op is one completed operation extracted from a history: an invoke event
// matched with its response.
type Op struct {
	Thread int
	Name   string
	Args   []int64
	Ret    int64
	HasRet bool

	// Inv and Res are the global event indices of the invoke and response,
	// defining the real-time order used by linearizability.
	Inv, Res int
}

func (o Op) String() string {
	args := make([]string, len(o.Args))
	for i, a := range o.Args {
		args[i] = fmt.Sprint(a)
	}
	s := fmt.Sprintf("t%d:%s(%s)", o.Thread, o.Name, strings.Join(args, ","))
	if o.HasRet {
		s += fmt.Sprintf("=%d", o.Ret)
	}
	return s
}

// CompleteOps pairs invoke/response events into completed operations.
// Operations within a thread are sequential, so pairing is per-thread FIFO.
// Invokes with no response (possible only in cut-off executions) are
// dropped: an operation that never returned imposes no obligation on the
// history checkers we run (we only check completed executions).
func CompleteOps(events []interp.Event) []Op {
	var c Checker
	return c.CompleteOps(events)
}

// PerThread groups completed operations by thread, preserving program
// order, and returns the thread ids in ascending order.
func PerThread(ops []Op) (map[int][]Op, []int) {
	m := make(map[int][]Op)
	var order []int
	for _, o := range ops {
		if _, ok := m[o.Thread]; !ok {
			order = append(order, o.Thread)
		}
		m[o.Thread] = append(m[o.Thread], o)
	}
	// order is already ascending-by-first-occurrence; normalize to sorted.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j-1] > order[j]; j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	return m, order
}
