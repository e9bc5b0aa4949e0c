// Chrome trace-event JSON export: the Tracer's snapshot serialized in
// the object form Perfetto (and chrome://tracing) load directly —
// `{"traceEvents": [...], "otherData": {...}}`. Spans become "X"
// (complete) events with ts/dur in microseconds, instants become "i"
// events, and per-lane "M" metadata events name the coordinator and
// worker threads. Viewers ignore otherData, which is where the *exact*
// per-lane portfolio aggregates, the sampling configuration, and the
// ring-drop counts live — the numbers the terminal summarizer trusts,
// unaffected by span sampling or ring overflow.
package trace

import (
	"encoding/json"
	"io"
	"os"
)

// formatVersion identifies this exporter's layout; Read rejects other
// values so `dfence trace` never mis-summarizes a drifted file. Version 2
// added PhaseAgg.Inconclusive.
const formatVersion = 2

// Data is the on-disk trace: what WriteJSON emits and Read decodes.
type Data struct {
	TraceEvents []Event   `json:"traceEvents"`
	Other       OtherData `json:"otherData"`
}

// Event is one trace-event record. Ph is "M" (metadata), "X" (complete
// span, Ts/Dur in microseconds), or "i" (instant).
type Event struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	S    string  `json:"s,omitempty"` // instant scope ("t" = thread)
	Args *Args   `json:"args,omitempty"`
}

// Args carries the per-event payload (all fields optional).
type Args struct {
	Name      string `json:"name,omitempty"` // metadata payload
	Round     int    `json:"round,omitempty"`
	Portfolio int    `json:"portfolio,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Iters     int64  `json:"iters,omitempty"`
	Steps     int64  `json:"steps,omitempty"`
	Spins     int64  `json:"spins,omitempty"`
	Count     int64  `json:"count,omitempty"`
}

// OtherData is the exact side-channel viewers ignore.
type OtherData struct {
	Tool        string     `json:"tool"` // always "dfence-trace"
	Format      int        `json:"format"`
	DurationUS  float64    `json:"duration_us"` // epoch → snapshot
	SampleEvery int        `json:"sample_every"`
	RingSize    int        `json:"ring_size"`
	Lanes       []LaneInfo `json:"lanes"`
}

// LaneInfo is one lane's exact accounting.
type LaneInfo struct {
	Lane      int        `json:"lane"`
	Label     string     `json:"label"`
	Dropped   int64      `json:"dropped,omitempty"`
	Portfolio []PhaseAgg `json:"portfolio,omitempty"`
}

// laneLabel names a lane for thread metadata and summaries.
func laneLabel(i int) string {
	if i == 0 {
		return "coordinator"
	}
	return "worker " + itoa(i-1)
}

// itoa avoids strconv for the two-digit lane labels (keeps the import
// set minimal; lanes are small).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 && i > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

const us = 1e3 // ns per µs, as a float divisor

// Snapshot freezes the tracer's current contents into the exportable
// Data form. Safe during a live run (each lane is copied under its
// lock); nil-safe (returns an empty Data).
func (t *Tracer) Snapshot() *Data {
	d := &Data{Other: OtherData{Tool: "dfence-trace", Format: formatVersion}}
	if t == nil {
		return d
	}
	d.Other.DurationUS = float64(t.now()) / us
	d.Other.SampleEvery = t.opts.SampleEvery
	d.Other.RingSize = t.opts.RingSize
	d.TraceEvents = append(d.TraceEvents, Event{
		Name: "process_name", Ph: "M", Pid: 1, Args: &Args{Name: "dfence"},
	})
	for li, ln := range t.lanes {
		info := LaneInfo{Lane: li, Label: laneLabel(li)}
		d.TraceEvents = append(d.TraceEvents, Event{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: li, Args: &Args{Name: info.Label},
		})
		ln.mu.Lock()
		info.Dropped = ln.dropped
		for p := range ln.agg {
			if ln.agg[p].Execs > 0 {
				a := ln.agg[p]
				a.Phase = p
				info.Portfolio = append(info.Portfolio, a)
			}
		}
		events := make([]event, ln.n)
		for k := 0; k < ln.n; k++ {
			events[k] = ln.ring[(ln.head+k)%len(ln.ring)]
		}
		ln.mu.Unlock()
		for _, ev := range events {
			d.TraceEvents = append(d.TraceEvents, jsonEvent(ev, li))
		}
		d.Other.Lanes = append(d.Other.Lanes, info)
	}
	return d
}

// jsonEvent converts one ring entry for lane li.
func jsonEvent(ev event, li int) Event {
	out := Event{Name: ev.name.String(), Pid: 1, Tid: li, Ts: float64(ev.start) / us}
	var args Args
	used := false
	if ev.round != 0 {
		args.Round = int(ev.round)
		used = true
	}
	if ev.dur < 0 {
		out.Ph = "i"
		out.S = "t"
		if ev.arg != 0 {
			args.Count = ev.arg
			used = true
		}
	} else {
		out.Ph = "X"
		out.Dur = float64(ev.dur) / us
		if ev.name == SpanExec {
			args.Portfolio = int(ev.phase)
			args.Seed = ev.arg
			args.Iters, args.Steps, args.Spins = ev.iters, ev.steps, ev.spins
			used = true
		}
	}
	if used {
		out.Args = &args
	}
	return out
}

// WriteJSON writes the tracer's snapshot as Chrome trace-event JSON.
// Nil-safe (writes an empty, valid trace).
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t.Snapshot())
}

// WriteJSONFile writes the snapshot to path (created or truncated).
func (t *Tracer) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = t.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Summary renders the live terminal summary of the tracer's current
// contents — what /tracez serves mid-run. Nil-safe.
func (t *Tracer) Summary() string {
	return Summarize(t.Snapshot())
}
