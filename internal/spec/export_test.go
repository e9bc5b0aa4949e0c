package spec

// The history generators of the in-package tests, exposed to the
// recorded-verdict test (package spec_test, which needs progs and sched).
var (
	MutateHistory         = mutateHistory
	GenSerialDequeHistory = genSerialDequeHistory
)
