package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestStartOpNesting(t *testing.T) {
	r := NewRecorder()
	outer := r.StartOp("ckks.Mult")
	if got := r.cur.Load(); got != outer {
		t.Fatalf("cursor = %v, want the outer op", got)
	}
	inner := r.StartOp("ckks.Rescale")
	if inner.parent != outer.ID() {
		t.Fatalf("inner parent = %d, want %d", inner.parent, outer.ID())
	}
	leaf := r.StartLinked("rns.ModDown")
	if leaf.parent != inner.ID() {
		t.Fatalf("linked parent = %d, want current op %d", leaf.parent, inner.ID())
	}
	if got := r.cur.Load(); got != inner {
		t.Fatalf("StartLinked moved the cursor to %v", got)
	}
	leaf.End()
	inner.End()
	if got := r.cur.Load(); got != outer {
		t.Fatalf("End did not restore the cursor: cursor = %v, want outer", got)
	}
	outer.End()
	if got := r.cur.Load(); got != nil {
		t.Fatalf("cursor not cleared after last End: %v", got)
	}

	spans := r.Snapshot().Spans
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if byName["ckks.Mult"].Parent != 0 {
		t.Errorf("root op has parent %d", byName["ckks.Mult"].Parent)
	}
	if byName["ckks.Rescale"].Parent != byName["ckks.Mult"].ID {
		t.Errorf("Rescale parent = %d, want Mult %d", byName["ckks.Rescale"].Parent, byName["ckks.Mult"].ID)
	}
	if byName["rns.ModDown"].Parent != byName["ckks.Rescale"].ID {
		t.Errorf("ModDown parent = %d, want Rescale %d", byName["rns.ModDown"].Parent, byName["ckks.Rescale"].ID)
	}
	if byName["rns.ModDown"].Counters != nil {
		t.Errorf("lite span captured counter deltas: %v", byName["rns.ModDown"].Counters)
	}
}

func TestSpanAttrsAndTid(t *testing.T) {
	r := NewRecorder()
	sp := r.StartOp("op").SetAttr("pred.bytes", 4096).SetAttr("ct.level", 7).SetTid(3)
	sp.End()
	rec := r.Snapshot().Spans[0]
	if rec.Attrs["pred.bytes"] != 4096 || rec.Attrs["ct.level"] != 7 {
		t.Errorf("attrs = %v", rec.Attrs)
	}
	if rec.Tid != 3 {
		t.Errorf("Tid = %d, want 3", rec.Tid)
	}
}

func TestResetReRootsInFlightSpans(t *testing.T) {
	r := NewRecorder()
	outer := r.StartOp("outer")
	inner := r.StartOp("inner")
	r.Reset()
	if got := r.cur.Load(); got != nil {
		t.Fatalf("Reset left cursor %v", got)
	}
	inner.End()
	outer.End()
	for _, sp := range r.Snapshot().Spans {
		if sp.Parent != 0 {
			t.Errorf("span %q straddling Reset kept parent %d, want re-root to 0", sp.Name, sp.Parent)
		}
	}
}

func TestNilSpanHierarchyMethods(t *testing.T) {
	var r *Recorder
	sp := r.StartOp("x")
	sp.SetAttr("k", 1).SetTid(2)
	if sp.ID() != 0 {
		t.Errorf("nil span ID = %d", sp.ID())
	}
	sp.End()
	r.StartLinked("y").End()
}

// TestChromeTraceLanes locks the lane-packing contract: explicit Tids
// map to stable worker lanes (workerLaneBase+Tid) with thread_name
// metadata, and Tid-0 spans pack next to their parents.
func TestChromeTraceLanes(t *testing.T) {
	r := NewRecorder()
	op := r.StartOp("ckks.Mult")
	w1 := r.StartLinked("ring.parallel.worker").SetTid(1)
	w2 := r.StartLinked("ring.parallel.worker").SetTid(2)
	w1.End()
	w2.End()
	child := r.StartOp("ckks.Rescale")
	child.End()
	op.End()

	var buf strings.Builder
	if err := r.Snapshot().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatal(err)
	}
	lanes := map[string]int{}
	threadNames := map[int]string{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			lanes[ev.Name] = ev.Tid
		case "M":
			if ev.Name == "thread_name" {
				threadNames[ev.Tid], _ = ev.Args["name"].(string)
			}
		}
	}
	if lanes["ring.parallel.worker"] != workerLaneBase+2 { // last worker span wins the map entry
		t.Errorf("worker lane = %d, want %d", lanes["ring.parallel.worker"], workerLaneBase+2)
	}
	if lanes["ckks.Mult"] != lanes["ckks.Rescale"] {
		t.Errorf("nested op split across lanes %d and %d", lanes["ckks.Mult"], lanes["ckks.Rescale"])
	}
	if name := threadNames[workerLaneBase+1]; name != "worker 1" {
		t.Errorf("worker lane 1 thread_name = %q", name)
	}
	if name := threadNames[lanes["ckks.Mult"]]; name != "ops" {
		t.Errorf("op lane thread_name = %q", name)
	}
}

// TestPrometheusHelpLines checks every exported series carries # HELP
// and # TYPE, including dot-to-underscore name sanitization.
func TestPrometheusHelpLines(t *testing.T) {
	r := NewRecorder()
	r.Add("ring.ntt.bytes", 10)
	r.SetGauge("mem.heap_alloc", 5)
	r.StartOp("ckks.Mult").End()
	var buf strings.Builder
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, series := range []string{"ring_ntt_bytes_total", "mem_heap_alloc", "ckks_Mult_seconds"} {
		if !strings.Contains(out, "# HELP "+series+" ") {
			t.Errorf("missing # HELP for %s in:\n%s", series, out)
		}
		if !strings.Contains(out, "# TYPE "+series+" ") {
			t.Errorf("missing # TYPE for %s", series)
		}
	}
	// Sample lines must use sanitized names; the dotted originals may only
	// appear quoted inside # HELP text.
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		if strings.Contains(name, ".") {
			t.Errorf("unsanitized metric name %q in exposition", name)
		}
	}
}
