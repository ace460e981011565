package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// Exporters. Both operate on a Snapshot and are deterministic:
// spans are ordered by start time (then ID), counters and gauges by name.

// chromeEvent is one trace_event entry. We emit complete ("X") duration
// events on packed lanes plus thread-name metadata; nesting is derived by
// the viewer from the time intervals on a shared tid.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// workerLaneBase offsets explicitly-tagged worker tids so they never
// collide with the packed lanes of untagged spans.
const workerLaneBase = 1000

// assignLanes maps each span (pre-sorted by start time) to a Chrome tid.
// Spans tagged with an explicit worker Tid get a dedicated lane per
// worker; the rest are greedily packed onto as few lanes as proper
// interval nesting allows, preferring the lane their parent occupies so
// call trees render as stacked slices rather than an overlapping smear.
func assignLanes(spans []SpanRecord) []int {
	type open struct {
		end time.Duration
	}
	var lanes [][]open // stack of currently-open intervals per lane
	laneOf := make(map[uint64]int, len(spans))
	out := make([]int, len(spans))
	for i, sp := range spans {
		if sp.Tid != 0 {
			out[i] = workerLaneBase + sp.Tid
			continue
		}
		end := sp.Start + sp.Dur
		fits := func(l int) bool {
			st := lanes[l]
			for len(st) > 0 && st[len(st)-1].end <= sp.Start {
				st = st[:len(st)-1]
			}
			lanes[l] = st
			return len(st) == 0 || end <= st[len(st)-1].end
		}
		lane := -1
		if pl, ok := laneOf[sp.Parent]; ok && fits(pl) {
			lane = pl
		} else {
			for l := range lanes {
				if fits(l) {
					lane = l
					break
				}
			}
		}
		if lane < 0 {
			lanes = append(lanes, nil)
			lane = len(lanes) - 1
		}
		lanes[lane] = append(lanes[lane], open{end})
		laneOf[sp.ID] = lane
		out[i] = lane + 1 // packed lanes are 1-based; tid 0 stays unused
	}
	return out
}

// WriteChromeTrace writes the snapshot in Chrome trace_event JSON format,
// loadable in chrome://tracing or https://ui.perfetto.dev. Span counter
// deltas and ledger attributes appear as event args; recorder-level
// counters and gauges are attached to a zero-duration "metrics" instant
// event at the end of the trace. Worker-tagged spans render on their own
// named threads; everything else is lane-packed for proper nesting.
func (s Snapshot) WriteChromeTrace(w io.Writer) error {
	spans := append([]SpanRecord(nil), s.Spans...)
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		if spans[i].Dur != spans[j].Dur {
			return spans[i].Dur > spans[j].Dur // parents before children at equal start
		}
		return spans[i].ID < spans[j].ID
	})
	lanes := assignLanes(spans)
	tr := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	if len(spans) > 0 {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "fhe"},
		})
	}
	named := map[int]bool{}
	var end float64
	for i, sp := range spans {
		tid := lanes[i]
		if !named[tid] {
			named[tid] = true
			name := "ops"
			switch {
			case tid >= workerLaneBase:
				name = fmt.Sprintf("worker %d", tid-workerLaneBase)
			case tid > 1:
				name = fmt.Sprintf("ops overflow %d", tid-1)
			}
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": name},
			})
		}
		ev := chromeEvent{
			Name: sp.Name,
			Ph:   "X",
			Ts:   float64(sp.Start.Nanoseconds()) / 1e3,
			Dur:  float64(sp.Dur.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  tid,
		}
		if len(sp.Counters)+len(sp.Attrs) > 0 {
			ev.Args = make(map[string]any, len(sp.Counters)+len(sp.Attrs))
			for k, v := range sp.Counters {
				ev.Args[k] = v
			}
			for k, v := range sp.Attrs {
				ev.Args[k] = v
			}
		}
		if e := ev.Ts + ev.Dur; e > end {
			end = e
		}
		tr.TraceEvents = append(tr.TraceEvents, ev)
	}
	if len(s.Counters) > 0 || len(s.Gauges) > 0 || len(s.Hists) > 0 {
		args := make(map[string]any, len(s.Counters)+len(s.Gauges)+4*len(s.Hists))
		for k, v := range s.Counters {
			args[k] = v
		}
		for k, v := range s.Gauges {
			args[k] = v
		}
		// Histograms surface as their headline latencies (nanoseconds) so
		// the percentiles are visible next to the trace they summarize.
		for k, h := range s.Hists {
			args[k+".p50_ns"] = uint64(h.Quantile(0.50))
			args[k+".p95_ns"] = uint64(h.Quantile(0.95))
			args[k+".p99_ns"] = uint64(h.Quantile(0.99))
			args[k+".max_ns"] = h.Max
		}
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "metrics", Ph: "i", Ts: end, Pid: 1, Tid: 1, Args: args,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(tr)
}

// WritePrometheus writes counters and gauges in the Prometheus text
// exposition format (version 0.0.4). Counter names are suffixed _total
// per convention; all names are sanitized to the Prometheus charset, and
// every series carries # HELP/# TYPE headers naming the original
// dotted-form metric so the sanitized identifier stays traceable.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, name := range sortedKeys(s.Counters) {
		metric := promName(name) + "_total"
		if _, err := fmt.Fprintf(w, "# HELP %s Counter %q recorded by internal/obs.\n# TYPE %s counter\n%s %d\n",
			metric, name, metric, metric, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		metric := promName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s Gauge %q recorded by internal/obs.\n# TYPE %s gauge\n%s %s\n",
			metric, name, metric, metric,
			strconv.FormatFloat(s.Gauges[name], 'g', -1, 64)); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Hists) {
		if err := writePromHistogram(w, name, s.Hists[name]); err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram emits one histogram in Prometheus exposition format.
// Observations are recorded in nanoseconds; per Prometheus convention the
// metric is exported in seconds with cumulative le= buckets. Empty
// leading buckets collapse into the first populated bound to keep the
// exposition compact; trailing buckets collapse into +Inf.
func writePromHistogram(w io.Writer, name string, h HistogramSnapshot) error {
	metric := promName(name) + "_seconds"
	if _, err := fmt.Fprintf(w, "# HELP %s Latency histogram %q recorded by internal/obs, in seconds.\n# TYPE %s histogram\n",
		metric, name, metric); err != nil {
		return err
	}
	first, last := -1, -1
	for i, n := range h.Buckets {
		if n > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	var cum uint64
	for i := first; i >= 0 && i <= last; i++ {
		cum += h.Buckets[i]
		le := strconv.FormatFloat(bucketUpper(i)/1e9, 'g', -1, 64)
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", metric, le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", metric, h.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", metric,
		strconv.FormatFloat(float64(h.Sum)/1e9, 'g', -1, 64), metric, h.Count); err != nil {
		return err
	}
	return nil
}

// promName maps an arbitrary metric name onto the Prometheus identifier
// charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			out = append(out, c)
		case c >= '0' && c <= '9':
			if i == 0 {
				out = append(out, '_')
			}
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "_"
	}
	return string(out)
}

// Recorder conveniences: export the current state directly.

func (r *Recorder) WriteChromeTrace(w io.Writer) error { return r.Snapshot().WriteChromeTrace(w) }
func (r *Recorder) WritePrometheus(w io.Writer) error  { return r.Snapshot().WritePrometheus(w) }
