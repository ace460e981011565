package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanRingCapAndDroppedAccounting proves the flight-recorder bound:
// with a cap of 8, recording 20 spans retains exactly the last 8 (in
// recording order) and counts exactly 12 evictions.
func TestSpanRingCapAndDroppedAccounting(t *testing.T) {
	r := NewRecorder(WithSpanCap(8))
	for i := 0; i < 20; i++ {
		r.StartSpan(fmt.Sprintf("op%02d", i)).End()
	}
	s := r.Snapshot()
	if len(s.Spans) != 8 {
		t.Fatalf("retained %d spans, want 8", len(s.Spans))
	}
	for i, sp := range s.Spans {
		want := fmt.Sprintf("op%02d", 12+i)
		if sp.Name != want {
			t.Errorf("spans[%d] = %s, want %s (oldest-first recording order)", i, sp.Name, want)
		}
	}
	if got := s.Counters[DroppedSpansCounter]; got != 12 {
		t.Fatalf("%s = %d, want 12", DroppedSpansCounter, got)
	}
}

func TestSpanCapUnbounded(t *testing.T) {
	r := NewRecorder(WithSpanCap(0))
	for i := 0; i < 2*DefaultSpanCap/64; i++ {
		r.StartSpan("op").End()
	}
	if got := r.Counter(DroppedSpansCounter); got != 0 {
		t.Fatalf("unbounded recorder dropped %d spans", got)
	}
}

// TestResetReanchorsEpoch is the regression test for Reset leaving the
// epoch stale: a span recorded after Reset must have a Start offset
// relative to the Reset, not to the recorder's construction.
func TestResetReanchorsEpoch(t *testing.T) {
	r := NewRecorder()
	clock := time.Now()
	r.now = func() time.Time { return clock }
	r.start = clock

	clock = clock.Add(10 * time.Second)
	r.Reset()
	clock = clock.Add(5 * time.Millisecond)
	sp := r.StartSpan("post-reset")
	clock = clock.Add(time.Millisecond)
	sp.End()

	rec := r.Snapshot().Spans[0]
	if rec.Start != 5*time.Millisecond {
		t.Fatalf("post-reset span Start = %v, want 5ms (epoch not re-anchored)", rec.Start)
	}
}

// TestResetClearsHistograms extends the Reset contract to the histogram
// shard map.
func TestResetClearsHistograms(t *testing.T) {
	r := NewRecorder()
	r.Observe("h", 100)
	r.Reset()
	if s := r.Hist("h"); s.Count != 0 {
		t.Fatalf("reset left histogram state: %+v", s)
	}
	if s := r.Snapshot(); len(s.Hists) != 0 {
		t.Fatalf("reset left snapshot hists: %v", s.Hists)
	}
}

// TestEndAfterResetClampsDeltas is the regression test for the
// counter-delta underflow: a Reset between StartSpan and End zeroes the
// counters below the span's snapshot, and the unsigned subtraction must
// clamp at zero instead of wrapping to ~2^64.
func TestEndAfterResetClampsDeltas(t *testing.T) {
	r := NewRecorder()
	r.Add("k", 1000)
	sp := r.StartSpan("in-flight")
	r.Reset()
	r.Add("k", 3) // post-reset activity, below the span's snapshot of 1000
	sp.End()
	spans := r.Snapshot().SpansNamed("in-flight")
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	if d, ok := spans[0].Counters["k"]; ok {
		t.Fatalf("span delta for k = %d, want absent (clamped to zero)", d)
	}
	// A span whose Start predates the re-anchored epoch must not export a
	// negative offset.
	if spans[0].Start < 0 {
		t.Fatalf("span Start %v negative after mid-flight Reset", spans[0].Start)
	}
}

// TestConcurrentSnapshotAndExport is the -race stress test: snapshots
// and all three exporters run concurrently with span, counter, gauge and
// histogram writers. The assertions pin no torn state: every snapshot
// must be internally consistent (ring never exceeds cap, quantiles
// within recorded range).
func TestConcurrentSnapshotAndExport(t *testing.T) {
	const ringCap = 64
	r := NewRecorder(WithSpanCap(ringCap))
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sp := r.StartSpan("writer")
				r.Add("n", 1)
				r.SetGauge("g", float64(i))
				r.Observe("lat", uint64(i%1000)+1)
				child := sp.StartChild("child")
				child.End()
				sp.End()
			}
		}(g)
	}

	deadline := time.After(200 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
		}
		s := r.Snapshot()
		if len(s.Spans) > ringCap {
			t.Errorf("snapshot holds %d spans, cap is %d", len(s.Spans), ringCap)
			done = true
		}
		if h, ok := s.Hists["lat"]; ok && h.Count > 0 {
			if q := h.Quantile(0.99); q > float64(h.Max) {
				t.Errorf("p99 %v exceeds max %d", q, h.Max)
				done = true
			}
		}
		var sb strings.Builder
		if err := s.WriteChromeTrace(&sb); err != nil {
			t.Errorf("chrome trace: %v", err)
		}
		sb.Reset()
		if err := s.WritePrometheus(&sb); err != nil {
			t.Errorf("prometheus: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestFlightDump exercises the FLIGHT.json serialization end to end:
// faults retain the window leading up to them, the drop counter is
// carried, and the JSON round-trips.
func TestFlightDump(t *testing.T) {
	r := NewRecorder(WithSpanCap(4))
	for i := 0; i < 10; i++ {
		r.StartSpan(fmt.Sprintf("step%d", i)).End()
	}
	r.Add("ring.ntt", 42)
	r.SetGauge("mem.heap_alloc_bytes", 123456)

	path := filepath.Join(t.TempDir(), "FLIGHT.json")
	if err := r.DumpFlight(path, "test fault"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("FLIGHT.json does not parse: %v", err)
	}
	if d.Reason != "test fault" {
		t.Errorf("reason = %q", d.Reason)
	}
	if d.RetainedSpans != 4 || len(d.Spans) != 4 {
		t.Fatalf("retained %d/%d spans, want 4", d.RetainedSpans, len(d.Spans))
	}
	// The window must be the last 4 spans, oldest first, closest to the
	// fault last.
	for i, sp := range d.Spans {
		if want := fmt.Sprintf("step%d", 6+i); sp.Name != want {
			t.Errorf("spans[%d] = %s, want %s", i, sp.Name, want)
		}
	}
	if d.DroppedSpans != 6 {
		t.Errorf("dropped_spans = %d, want 6", d.DroppedSpans)
	}
	if d.Counters["ring.ntt"] != 42 {
		t.Errorf("counters not carried: %v", d.Counters)
	}
	if d.Gauges["mem.heap_alloc_bytes"] != 123456 {
		t.Errorf("gauges not carried: %v", d.Gauges)
	}
	// Every span gets a histogram via End; spot-check one made it.
	if len(d.Hists) == 0 {
		t.Error("no histograms in flight dump")
	}
}

// TestDumpFlightNilRecorder pins the unconditional-registration
// contract: a nil recorder writes nothing and returns nil.
func TestDumpFlightNilRecorder(t *testing.T) {
	var r *Recorder
	path := filepath.Join(t.TempDir(), "FLIGHT.json")
	if err := r.DumpFlight(path, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("nil recorder wrote a flight dump")
	}
}
