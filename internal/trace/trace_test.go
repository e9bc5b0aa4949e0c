package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestDisabledTracerZeroAlloc pins the inert-when-disabled contract: every
// hot-path call on a nil Tracer (and End on the zero Span it returns) must
// allocate nothing.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		s := tr.Begin(1, SpanExec, 3)
		s.End()
		tr.Instant(1, InstantViolation, 3, 0)
		tr.InstantSampled(1, InstantCacheHit, 3, 0)
		tr.ExecDone(1, 2, time.Millisecond, 100, 40, 7, false, 42)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %.1f per op, want 0", allocs)
	}
}

// TestEnabledTracerSpanZeroAlloc pins that Begin/End on an enabled tracer
// also allocate nothing (spans are values; rings are preallocated).
func TestEnabledTracerSpanZeroAlloc(t *testing.T) {
	tr := New(Options{Lanes: 2, RingSize: 16, SampleEvery: 1})
	allocs := testing.AllocsPerRun(1000, func() {
		s := tr.Begin(1, SpanExec, 1)
		s.End()
		tr.ExecDone(1, 0, time.Microsecond, 10, 5, 1, false, 7)
	})
	if allocs != 0 {
		t.Fatalf("enabled tracer span allocated %.1f per op, want 0", allocs)
	}
}

// TestRingBounded pins the bounded-when-enabled contract: pushing far more
// events than the ring holds keeps n at capacity and counts the overflow.
func TestRingBounded(t *testing.T) {
	tr := New(Options{Lanes: 1, RingSize: 8, SampleEvery: 1})
	const total = 100
	for i := 0; i < total; i++ {
		tr.Instant(1, InstantViolation, 1, int64(i))
	}
	ln := tr.lanes[1]
	if ln.n != 8 {
		t.Fatalf("ring holds %d events, want 8", ln.n)
	}
	if ln.dropped != total-8 {
		t.Fatalf("dropped = %d, want %d", ln.dropped, total-8)
	}
	// The surviving events must be the newest ones, in order.
	d := tr.Snapshot()
	var counts []int64
	for _, ev := range d.TraceEvents {
		if ev.Ph == "i" && ev.Tid == 1 {
			counts = append(counts, ev.Args.Count)
		}
	}
	// Count 0 encodes as no args; events 92..99 all have non-zero counts.
	if len(counts) != 8 || counts[0] != total-8 || counts[7] != total-1 {
		t.Fatalf("ring kept counts %v, want 92..99", counts)
	}
}

// TestSampling pins 1-in-N exec-span sampling against exact aggregates.
func TestSampling(t *testing.T) {
	tr := New(Options{Lanes: 1, RingSize: 1024, SampleEvery: 4})
	for i := 0; i < 40; i++ {
		tr.ExecDone(1, 1, time.Millisecond, 10, 6, 2, i%4 == 0, int64(i))
	}
	d := tr.Snapshot()
	spans := 0
	for _, ev := range d.TraceEvents {
		if ev.Ph == "X" && ev.Name == SpanExec.String() {
			spans++
		}
	}
	if spans != 10 {
		t.Fatalf("sampled %d exec spans, want 10 (40 execs, 1-in-4)", spans)
	}
	var agg *PhaseAgg
	for i := range d.Other.Lanes[1].Portfolio {
		if d.Other.Lanes[1].Portfolio[i].Phase == 1 {
			agg = &d.Other.Lanes[1].Portfolio[i]
		}
	}
	if agg == nil || agg.Execs != 40 || agg.Inconclusive != 10 || agg.Iters != 400 || agg.Steps != 240 || agg.Spins != 80 {
		t.Fatalf("aggregate not exact despite sampling: %+v", agg)
	}
}

// TestRoundTrip pins that WriteJSON output survives the strict reader.
func TestRoundTrip(t *testing.T) {
	tr := New(Options{Lanes: 2, RingSize: 64, SampleEvery: 1})
	run := tr.Begin(0, SpanRun, 0)
	round := tr.Begin(0, SpanRound, 1)
	c := tr.Begin(0, SpanCollect, 1)
	tr.ExecDone(1, 0, 50*time.Microsecond, 20, 12, 3, false, 99)
	tr.ExecDone(2, 3, 80*time.Microsecond, 30, 18, 5, true, 100)
	tr.Instant(1, InstantViolation, 1, 0)
	c.End()
	s := tr.Begin(0, SpanSolve, 1)
	tr.Instant(0, InstantSolverRestarts, 1, 2)
	s.End()
	round.End()
	tr.Instant(0, InstantCheckpoint, 1, 0)
	run.End()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	d, err := Read(&buf)
	if err != nil {
		t.Fatalf("strict reader rejected our own output: %v", err)
	}
	if len(d.Other.Lanes) != 3 {
		t.Fatalf("lanes = %d, want 3", len(d.Other.Lanes))
	}
	sum := Summarize(d)
	for _, want := range []string{"phase breakdown", "round 1", "worker utilization", "portfolio attribution", "random", "priority+starve+eager-flush", "    1 inconclusive", "violation ×1", "solver-restarts ×1"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
}

// TestReaderRejects pins the strict reader's tripwires.
func TestReaderRejects(t *testing.T) {
	cases := map[string]string{
		"wrong tool":           `{"traceEvents":[],"otherData":{"tool":"other","format":2,"duration_us":0,"sample_every":1,"ring_size":1,"lanes":[]}}`,
		"wrong format":         `{"traceEvents":[],"otherData":{"tool":"dfence-trace","format":99,"duration_us":0,"sample_every":1,"ring_size":1,"lanes":[]}}`,
		"unknown field":        `{"traceEvents":[],"otherData":{"tool":"dfence-trace","format":2,"duration_us":0,"sample_every":1,"ring_size":1,"lanes":[],"extra":1}}`,
		"unknown name":         `{"traceEvents":[{"name":"mystery","ph":"X","ts":0,"pid":1,"tid":0}],"otherData":{"tool":"dfence-trace","format":2,"duration_us":0,"sample_every":1,"ring_size":1,"lanes":[]}}`,
		"instant as span":      `{"traceEvents":[{"name":"violation","ph":"X","ts":0,"pid":1,"tid":0}],"otherData":{"tool":"dfence-trace","format":2,"duration_us":0,"sample_every":1,"ring_size":1,"lanes":[]}}`,
		"stale format":         `{"traceEvents":[],"otherData":{"tool":"dfence-trace","format":1,"duration_us":0,"sample_every":1,"ring_size":1,"lanes":[]}}`,
		"inconclusive > execs": `{"traceEvents":[],"otherData":{"tool":"dfence-trace","format":2,"duration_us":0,"sample_every":1,"ring_size":1,"lanes":[{"lane":0,"label":"x","portfolio":[{"phase":4,"execs":1,"inconclusive":2,"wall_ns":0,"iters":0,"steps":0,"spins":0}]}]}}`,
		"bad lane index":       `{"traceEvents":[],"otherData":{"tool":"dfence-trace","format":2,"duration_us":0,"sample_every":1,"ring_size":1,"lanes":[{"lane":3,"label":"x"}]}}`,
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: strict reader accepted invalid input", name)
		}
	}
}

// TestNilSnapshot pins that a nil tracer still writes a valid empty trace.
func TestNilSnapshot(t *testing.T) {
	var tr *Tracer
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON on nil: %v", err)
	}
	if _, err := Read(&buf); err != nil {
		t.Fatalf("nil snapshot rejected: %v", err)
	}
	if tr.Summary() == "" {
		t.Fatal("nil summary empty")
	}
}

// TestLaneClamp pins that out-of-range lanes degrade instead of panicking.
func TestLaneClamp(t *testing.T) {
	tr := New(Options{Lanes: 1, RingSize: 8, SampleEvery: 1})
	tr.ExecDone(99, 0, time.Microsecond, 1, 1, 0, false, 0)
	tr.ExecDone(-5, 0, time.Microsecond, 1, 1, 0, false, 0)
	d := tr.Snapshot()
	if got := d.Other.Lanes[1].Portfolio[0].Execs; got != 1 {
		t.Fatalf("high lane clamped execs = %d, want 1", got)
	}
	if got := d.Other.Lanes[0].Portfolio[0].Execs; got != 1 {
		t.Fatalf("low lane clamped execs = %d, want 1", got)
	}
}
