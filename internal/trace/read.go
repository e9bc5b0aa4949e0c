// The strict reader: decodes a trace file WriteJSON produced, rejecting
// anything it does not understand — unknown JSON fields, unknown event
// names or phase types, a missing or mismatched tool/format stamp. Like
// telemetry.ReadJournal, strictness is the drift tripwire: `make
// trace-smoke` writes a real trace and re-reads it here, so an exporter
// change that is not mirrored in the reader (or versioned) fails CI
// instead of silently mis-summarizing.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Read decodes and validates one trace file.
func Read(r io.Reader) (*Data, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var d Data
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if d.Other.Tool != "dfence-trace" {
		return nil, fmt.Errorf("trace: not a dfence trace (tool %q)", d.Other.Tool)
	}
	if d.Other.Format != formatVersion {
		return nil, fmt.Errorf("trace: format %d, reader expects %d", d.Other.Format, formatVersion)
	}
	for i := range d.TraceEvents {
		ev := &d.TraceEvents[i]
		switch ev.Ph {
		case "M":
			if ev.Name != "process_name" && ev.Name != "thread_name" {
				return nil, fmt.Errorf("trace: event %d: unknown metadata %q", i, ev.Name)
			}
		case "X", "i":
			n, ok := nameOf(ev.Name)
			if !ok {
				return nil, fmt.Errorf("trace: event %d: unknown name %q", i, ev.Name)
			}
			if ev.Ph == "X" && n >= InstantViolation {
				return nil, fmt.Errorf("trace: event %d: instant name %q on a span", i, ev.Name)
			}
			if ev.Ph == "i" && n < InstantViolation {
				return nil, fmt.Errorf("trace: event %d: span name %q on an instant", i, ev.Name)
			}
			if ev.Ts < 0 || ev.Dur < 0 {
				return nil, fmt.Errorf("trace: event %d: negative timestamp", i)
			}
		default:
			return nil, fmt.Errorf("trace: event %d: unknown phase type %q", i, ev.Ph)
		}
	}
	for i, ln := range d.Other.Lanes {
		if ln.Lane != i {
			return nil, fmt.Errorf("trace: lane %d recorded as %d", i, ln.Lane)
		}
		for _, a := range ln.Portfolio {
			if a.Phase < 0 || a.Phase >= maxPortfolio {
				return nil, fmt.Errorf("trace: lane %d: portfolio phase %d out of range", i, a.Phase)
			}
			if a.Inconclusive < 0 || a.Inconclusive > a.Execs {
				return nil, fmt.Errorf("trace: lane %d: phase %d: %d inconclusive of %d executions", i, a.Phase, a.Inconclusive, a.Execs)
			}
		}
	}
	return &d, nil
}

// ReadFile is Read over a file path.
func ReadFile(path string) (*Data, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}
