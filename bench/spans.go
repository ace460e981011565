package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one recorded interval: what ran, when, and the span that caused
// it. Spans of one op (one request, for fhed_mixed) share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer is the benchmark's own span recorder: spans are opened around
// the calls into each layer from the benchmark's files, kept in memory
// and written out when the run ends. A nil *tracer records nothing, so
// the timed pass and the traced pass run the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 from a nil tracer).
func (t *tracer) start(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(op, parent int, name string, fn func()) {
	id := t.start(op, parent, name)
	fn()
	t.end(id)
}

// adopt appends the span trees an obs.Recorder collected since the tracer
// was made. The recorder must have been created right after the tracer so
// both count time from the same instant. With link set, a recorder root
// becomes a child of the innermost benchmark span that was open when it
// started (single-goroutine workloads); without, recorder roots stay
// roots, because concurrent requests share the recorder's one cursor and
// its parent links cannot be trusted across requests.
func (t *tracer) adopt(recorded []obs.SpanRecord, link bool) {
	// The recorder stores spans as they end; its ids count up as they
	// start. Sorting by id puts every parent before its children.
	recorded = append([]obs.SpanRecord(nil), recorded...)
	sort.Slice(recorded, func(i, j int) bool { return recorded[i].ID < recorded[j].ID })
	own := len(t.spans)
	idOf := make(map[uint64]int, len(recorded))
	for i, r := range recorded {
		idOf[r.ID] = own + i + 1
	}
	for _, r := range recorded {
		s := span{ID: idOf[r.ID], Name: r.Name, Start: r.Start.Nanoseconds(), End: (r.Start + r.Dur).Nanoseconds()}
		if link {
			s.Parent = idOf[r.Parent]
		}
		t.spans = append(t.spans, s)
	}
	if !link {
		return
	}
	// Benchmark spans are appended in start order and properly nested, so
	// the innermost one open at an instant is the last that started before
	// it and has not ended.
	for i := own; i < len(t.spans); i++ {
		s := &t.spans[i]
		if s.Parent != 0 {
			continue
		}
		k := sort.Search(own, func(j int) bool { return t.spans[j].Start > s.Start })
		for k--; k >= 0; k-- {
			if t.spans[k].End > s.Start {
				s.Parent = t.spans[k].ID
				break
			}
		}
	}
	for i := own; i < len(t.spans); i++ {
		if p := t.spans[i].Parent; p != 0 {
			t.spans[i].Op = t.spans[p-1].Op
		}
	}
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name   string
	Count  int
	SelfNs int64
}

// selfTable sums self time by span name over every span that descends
// from a root named rootName. The root's own self time is the time no
// child accounts for; it comes back separately as unaccounted, so rows
// plus unaccounted add up to total, the summed duration of those roots.
func selfTable(spans []span, rootName string) (rows []selfRow, unaccounted, total int64) {
	self := selfTimes(spans)
	under := make(map[int]bool)
	byName := make(map[string]*selfRow)
	for _, s := range spans { // a parent always precedes its children
		switch {
		case s.Parent == 0 && s.Name == rootName:
			under[s.ID] = true
			total += s.dur()
			unaccounted += self[s.ID]
		case under[s.Parent]:
			under[s.ID] = true
			r := byName[s.Name]
			if r == nil {
				r = &selfRow{Name: s.Name}
				byName[s.Name] = r
			}
			r.Count++
			r.SelfNs += self[s.ID]
		}
	}
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfNs != rows[j].SelfNs {
			return rows[i].SelfNs > rows[j].SelfNs
		}
		return rows[i].Name < rows[j].Name
	})
	return rows, unaccounted, total
}

// printSelfTable writes the self-time table of one workload and returns
// how far rows plus unaccounted are from the parent, as a share of it.
func printSelfTable(w io.Writer, spans []span, rootName string, ops int) float64 {
	rows, unaccounted, total := selfTable(spans, rootName)
	if total == 0 || ops == 0 {
		return 0
	}
	fmt.Fprintf(w, "self time per %s (%d traced, %.3f ms each)\n", rootName, ops, float64(total)/1e6/float64(ops))
	fmt.Fprintf(w, "  %-28s %8s %12s %7s\n", "span", "calls/op", "self ms/op", "share")
	sum := unaccounted
	for _, r := range rows {
		sum += r.SelfNs
		fmt.Fprintf(w, "  %-28s %8.1f %12.4f %6.1f%%\n", r.Name, float64(r.Count)/float64(ops),
			float64(r.SelfNs)/1e6/float64(ops), 100*float64(r.SelfNs)/float64(total))
	}
	fmt.Fprintf(w, "  %-28s %8s %12.4f %6.1f%%\n", "unaccounted", "", float64(unaccounted)/1e6/float64(ops), 100*float64(unaccounted)/float64(total))
	gap := float64(sum-total) / float64(total)
	fmt.Fprintf(w, "  %-28s %8s %12.4f %6.1f%%  (rows + unaccounted vs parent: %+.3f%%)\n", "parent", "", float64(total)/1e6/float64(ops), 100.0, 100*gap)
	return gap
}

// traceFile is what one traced run writes to bench/out.
type traceFile struct {
	Meta     meta   `json:"meta"`
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
