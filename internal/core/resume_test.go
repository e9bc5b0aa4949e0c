package core

import (
	"strings"
	"testing"

	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/spec"
	"dfence/internal/telemetry"
)

// TestResumeFromEventsFolding: the journal-to-ResumeState fold rebuilds
// the completed rounds' statistics and cumulative counters from the event
// stream, anchored at the LAST checkpoint.
func TestResumeFromEventsFolding(t *testing.T) {
	fence := telemetry.Fence{After: 2, Label: 90, Kind: "fence(st-st)", Func: "producer"}
	events := []telemetry.Event{
		telemetry.RunStart{Model: "PSO", Criterion: "memory-safety", Seed: 7, Execs: 100, MaxRounds: 5},
		telemetry.RoundStart{Round: 1, DelayPairs: 3},
		telemetry.Violation{Round: 1, Seed: 7, Disjunction: []telemetry.Pred{{L: 2, K: 5}}},
		telemetry.FenceChange{Round: 1, Action: "insert", Count: 1, Fences: []telemetry.Fence{fence}},
		telemetry.RoundEnd{Round: 1, Executions: 100, Violations: 9, Inconclusive: 2, DistinctClauses: 1, Predicates: 1, WallUS: 2000, ExecsPerSec: 50000},
		telemetry.Checkpoint{Round: 1, Fences: []telemetry.Fence{fence}, TotalExecutions: 100, TotalInconclusive: 2},
		telemetry.RoundStart{Round: 2},
		telemetry.RoundEnd{Round: 2, Executions: 100, Violations: 1, DistinctClauses: 1, Predicates: 1},
		telemetry.Checkpoint{Round: 2, Fences: []telemetry.Fence{fence}, TotalExecutions: 200, TotalInconclusive: 2, EmptyRepairs: 1, UnfixableExample: "boom", WitnessCaptured: true},
		// Events after the last checkpoint belong to the dead round and
		// must not appear in the folded state.
		telemetry.RoundStart{Round: 3},
		telemetry.Violation{Round: 3, Seed: 19},
	}
	rs, err := ResumeFromEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Round != 2 {
		t.Fatalf("Round = %d, want 2 (last checkpoint)", rs.Round)
	}
	if len(rs.Rounds) != 2 {
		t.Fatalf("folded %d rounds, want 2", len(rs.Rounds))
	}
	r1 := rs.Rounds[0]
	if r1.Executions != 100 || r1.Violations != 9 || r1.Inconclusive != 2 ||
		r1.DistinctClauses != 1 || r1.StaticDelayPairs != 3 || len(r1.Inserted) != 1 {
		t.Fatalf("round 1 folded wrong: %+v", r1)
	}
	if r1.Inserted[0].Label != 90 || r1.Inserted[0].Kind.String() != "fence(st-st)" {
		t.Fatalf("round 1 fence folded wrong: %+v", r1.Inserted[0])
	}
	if rs.TotalExecutions != 200 || rs.TotalInconclusive != 2 || rs.EmptyRepairs != 1 ||
		rs.UnfixableExample != "boom" || !rs.WitnessCaptured {
		t.Fatalf("cumulative counters folded wrong: %+v", rs)
	}
	if len(rs.Fences) != 1 || rs.Fences[0].Label != 90 {
		t.Fatalf("cumulative fences folded wrong: %+v", rs.Fences)
	}

	// No checkpoint: nothing to resume from.
	if rs, err := ResumeFromEvents(events[:5]); err != nil || rs != nil {
		t.Fatalf("checkpoint-free journal: rs=%v err=%v, want nil,nil", rs, err)
	}

	// A checkpoint whose round count disagrees with the RoundEnd events
	// before it is a corrupt journal, not a resumable one.
	bad := []telemetry.Event{
		telemetry.RunStart{Model: "PSO"},
		telemetry.Checkpoint{Round: 3},
	}
	if _, err := ResumeFromEvents(bad); err == nil {
		t.Fatal("inconsistent checkpoint accepted")
	}
}

// checkpointCuts returns, for each Checkpoint in events, the event prefix
// ending at it — the journals a crash between that checkpoint and the
// next durable event would leave behind (modulo the torn tail, which
// ReadJournalOptions strips before the fold ever sees it).
func checkpointCuts(events []telemetry.Event) [][]telemetry.Event {
	var cuts [][]telemetry.Event
	for i, e := range events {
		if _, ok := e.(telemetry.Checkpoint); ok {
			cuts = append(cuts, events[:i+1])
		}
	}
	return cuts
}

// TestSynthesizeInterruptStopsAtCheckpoint: a pre-closed Interrupt channel
// stops the run at the first round boundary with OutcomeAborted and
// Interrupted set, its journal ends in a Checkpoint-covered prefix, and
// resuming that journal completes to the uninterrupted run's exact result.
func TestSynthesizeInterruptStopsAtCheckpoint(t *testing.T) {
	b, err := progs.ByName("chase-lev")
	if err != nil {
		t.Fatal(err)
	}
	mk := func() Config {
		return Config{
			Model:          memmodel.PSO,
			Criterion:      spec.SeqConsistency,
			NewSpec:        b.NewSpec(),
			ExecsPerRound:  150,
			MaxRounds:      5,
			Seed:           7,
			Workers:        4,
			ValidateFences: true,
		}
	}

	// Uninterrupted baseline, with its journal.
	var buf strings.Builder
	j := telemetry.NewJournal(&buf)
	cfg := mk()
	cfg.Sink = j
	base, err := Synthesize(b.Program(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(base.Rounds) < 2 {
		t.Fatalf("baseline finished in %d rounds; the interrupt test needs a checkpointed boundary", len(base.Rounds))
	}
	baseKey := resultKey(base)

	// Interrupted run: the closed channel stops it at the first checkpoint.
	interrupt := make(chan struct{})
	close(interrupt)
	var ibuf strings.Builder
	ij := telemetry.NewJournal(&ibuf)
	icfg := mk()
	icfg.Sink = ij
	icfg.Interrupt = interrupt
	partial, err := Synthesize(b.Program(), icfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ij.Close(); err != nil {
		t.Fatal(err)
	}
	if !partial.Interrupted || partial.Outcome != OutcomeAborted {
		t.Fatalf("interrupted run: Interrupted=%v Outcome=%v, want true/aborted", partial.Interrupted, partial.Outcome)
	}
	if len(partial.Rounds) != 1 {
		t.Fatalf("interrupted run completed %d rounds, want 1 (stop at first boundary)", len(partial.Rounds))
	}

	// Resume from the interrupted journal (through the real decode path).
	events, err := telemetry.ReadJournal(strings.NewReader(ibuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ResumeFromEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	if rs == nil || rs.Round != 1 {
		t.Fatalf("resume state = %+v, want checkpoint at round 1", rs)
	}
	rcfg := mk()
	rcfg.Resume = rs
	resumed, err := Synthesize(b.Program(), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultKey(resumed); got != baseKey {
		t.Fatalf("resumed result diverged from uninterrupted run\nbase:    %s\nresumed: %s", baseKey, got)
	}
}

// TestSynthesizeResumeEveryCheckpoint: for every checkpoint the baseline
// run journals, resuming from that prefix reproduces the baseline Result
// exactly — the round-by-round version of the crash-restart guarantee
// (the corpus-wide, real-bytes variant lives in internal/faultinject).
func TestSynthesizeResumeEveryCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		bench   string
		model   memmodel.Model
		execs   int
		rounds  int
		seed    int64
		workers int
	}{
		{"cilk-the", memmodel.PSO, 150, 5, 7, 4},
		// The solver's MaxModels cap truncates this cell's enumeration,
		// so its repairs are only reproducible if each round's answer
		// depends on nothing but that round's clauses.
		{"michael-alloc", memmodel.PSO, 200, 10, 1, 2},
	} {
		t.Run(tc.bench, func(t *testing.T) {
			b, err := progs.ByName(tc.bench)
			if err != nil {
				t.Fatal(err)
			}
			mk := func() Config {
				return Config{
					Model:          tc.model,
					Criterion:      spec.SeqConsistency,
					NewSpec:        b.NewSpec(),
					ExecsPerRound:  tc.execs,
					MaxRounds:      tc.rounds,
					Seed:           tc.seed,
					Workers:        tc.workers,
					ValidateFences: true,
				}
			}
			sink := &collectSink{}
			cfg := mk()
			cfg.Sink = sink
			base, err := Synthesize(b.Program(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			baseKey := resultKey(base)
			cuts := checkpointCuts(sink.events)
			if len(cuts) == 0 {
				t.Fatal("baseline emitted no checkpoints (single-round run); nothing to resume")
			}
			for i, cut := range cuts {
				rs, err := ResumeFromEvents(cut)
				if err != nil {
					t.Fatalf("checkpoint %d: %v", i+1, err)
				}
				rcfg := mk()
				rcfg.Resume = rs
				resumed, err := Synthesize(b.Program(), rcfg)
				if err != nil {
					t.Fatalf("checkpoint %d: %v", i+1, err)
				}
				if got := resultKey(resumed); got != baseKey {
					t.Fatalf("resume from checkpoint %d (round %d) diverged\nbase:    %s\nresumed: %s",
						i+1, rs.Round, baseKey, got)
				}
			}
		})
	}
}
