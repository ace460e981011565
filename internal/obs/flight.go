package obs

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"time"
)

// Flight-recorder dump: the recorder's bounded state — the last spans,
// every counter, gauge and histogram — serialized to a FLIGHT.json
// artifact for post-mortem analysis; fhed writes one when it drains.
// Because span retention is a fixed-capacity ring (see WithSpanCap), the
// dump is the window that led up to that moment, at constant memory, no
// matter how long the process ran.

// FlightSpan is one retained span in wire form (offsets and durations in
// microseconds, matching the Chrome trace unit).
type FlightSpan struct {
	ID       uint64            `json:"id"`
	Parent   uint64            `json:"parent,omitempty"`
	Name     string            `json:"name"`
	StartUs  float64           `json:"start_us"`
	DurUs    float64           `json:"dur_us"`
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// FlightHist is one histogram rendered to its headline statistics.
type FlightHist struct {
	Count  uint64  `json:"count"`
	P50Us  float64 `json:"p50_us"`
	P95Us  float64 `json:"p95_us"`
	P99Us  float64 `json:"p99_us"`
	MaxUs  float64 `json:"max_us"`
	MeanUs float64 `json:"mean_us"`
}

// FlightDump is the FLIGHT.json schema.
type FlightDump struct {
	Reason        string                `json:"reason"`
	WrittenAt     string                `json:"written_at"`
	GoVersion     string                `json:"go_version"`
	GOOS          string                `json:"goos"`
	GOARCH        string                `json:"goarch"`
	RetainedSpans int                   `json:"retained_spans"`
	DroppedSpans  uint64                `json:"dropped_spans"`
	Spans         []FlightSpan          `json:"spans"`
	Counters      map[string]uint64     `json:"counters,omitempty"`
	Gauges        map[string]float64    `json:"gauges,omitempty"`
	Hists         map[string]FlightHist `json:"hists,omitempty"`
}

// Flight renders the snapshot into the FLIGHT.json schema. Spans keep
// recording order (oldest retained first), so the last entry is the span
// closest to the fault.
func (s Snapshot) Flight(reason string) FlightDump {
	d := FlightDump{
		Reason:        reason,
		WrittenAt:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		RetainedSpans: len(s.Spans),
		DroppedSpans:  s.Counters[DroppedSpansCounter],
		Spans:         make([]FlightSpan, 0, len(s.Spans)),
		Counters:      s.Counters,
		Gauges:        s.Gauges,
	}
	for _, sp := range s.Spans {
		d.Spans = append(d.Spans, FlightSpan{
			ID:       sp.ID,
			Parent:   sp.Parent,
			Name:     sp.Name,
			StartUs:  float64(sp.Start.Nanoseconds()) / 1e3,
			DurUs:    float64(sp.Dur.Nanoseconds()) / 1e3,
			Counters: sp.Counters,
		})
	}
	if len(s.Hists) > 0 {
		d.Hists = make(map[string]FlightHist, len(s.Hists))
		for _, name := range sortedKeys(s.Hists) {
			h := s.Hists[name]
			d.Hists[name] = FlightHist{
				Count:  h.Count,
				P50Us:  h.Quantile(0.50) / 1e3,
				P95Us:  h.Quantile(0.95) / 1e3,
				P99Us:  h.Quantile(0.99) / 1e3,
				MaxUs:  float64(h.Max) / 1e3,
				MeanUs: h.Mean() / 1e3,
			}
		}
	}
	return d
}

// WriteFlight serializes the snapshot as an indented FLIGHT.json dump.
func (s Snapshot) WriteFlight(w io.Writer, reason string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Flight(reason))
}

// DumpFlight writes the recorder's current window to path; fhed calls it
// when it drains (Server.Shutdown with a FlightPath). A nil recorder
// writes nothing and returns nil, so a caller need not check whether
// recording is on.
func (r *Recorder) DumpFlight(path, reason string) error {
	if r == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return r.Snapshot().WriteFlight(f, reason)
}
