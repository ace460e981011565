package obs

import (
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	sp := r.StartOp("x")
	r.StartLinked("y").End()
	sp.End()
	r.Add("c", 1)
	r.SetGauge("g", 1)
	r.Reset()
	if got := r.Counter("c"); got != 0 {
		t.Fatalf("nil recorder counter = %d, want 0", got)
	}
	s := r.Snapshot()
	if len(s.Spans) != 0 || len(s.Counters) != 0 || len(s.Gauges) != 0 {
		t.Fatalf("nil recorder snapshot not empty: %+v", s)
	}
}

// TestNilRecorderAllocFree pins the disabled-path contract that lets
// instrumentation stay compiled into hot paths: every call the library
// makes on a nil recorder and its nil spans allocates nothing.
func TestNilRecorderAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var r *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		sp := r.StartOp("ckks.Mult").SetAttr("pred.bytes", 4096)
		r.StartLinked("ring.parallel.worker").SetTid(1).End()
		r.Add("ring.ntt", 12)
		r.SetGauge("mem.heap_alloc_bytes", 1)
		r.ObserveDuration("ckks.Mult", time.Millisecond)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil recorder path allocates %v times per run, want 0", allocs)
	}
}

func TestSpanHierarchyAndCounterDeltas(t *testing.T) {
	r := NewRecorder()
	root := r.StartOp("root")
	r.Add("ops", 3)
	child := r.StartOp("child")
	r.Add("ops", 4)
	child.End()
	r.Add("ops", 5)
	root.End()

	s := r.Snapshot()
	if len(s.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(s.Spans))
	}
	// Spans are recorded at End, so the child comes first.
	c, ro := s.Spans[0], s.Spans[1]
	if c.Name != "child" || ro.Name != "root" {
		t.Fatalf("unexpected span order: %q, %q", c.Name, ro.Name)
	}
	if c.Parent != ro.ID {
		t.Errorf("child parent = %d, want root ID %d", c.Parent, ro.ID)
	}
	if ro.Parent != 0 {
		t.Errorf("root parent = %d, want 0", ro.Parent)
	}
	if got := c.Counters["ops"]; got != 4 {
		t.Errorf("child ops delta = %d, want 4", got)
	}
	if got := ro.Counters["ops"]; got != 12 {
		t.Errorf("root ops delta = %d, want 12", got)
	}
	if s.Counters["ops"] != 12 {
		t.Errorf("total ops = %d, want 12", s.Counters["ops"])
	}
}

// TestConcurrentRecording exercises spans, counters and gauges from many
// goroutines; run with -race, it is the package's data-race canary.
func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder()
	const goroutines = 16
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sp := r.StartOp("op")
				r.Add("count", 1)
				r.StartLinked("sub").End()
				r.SetGauge("last", float64(i))
				sp.End()
			}
		}()
	}
	// Concurrent readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_ = r.Snapshot()
			_ = r.Counter("count")
		}
	}()
	wg.Wait()

	if got := r.Counter("count"); got != goroutines*iters {
		t.Fatalf("count = %d, want %d", got, goroutines*iters)
	}
	if got := len(r.Snapshot().Spans); got != 2*goroutines*iters {
		t.Fatalf("spans = %d, want %d", got, 2*goroutines*iters)
	}
}

func TestSpansNamed(t *testing.T) {
	r := NewRecorder()
	r.StartOp("a").End()
	r.StartOp("b").End()
	r.StartOp("a").End()
	if got := len(r.Snapshot().SpansNamed("a")); got != 2 {
		t.Fatalf("SpansNamed(a) = %d, want 2", got)
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	r := NewRecorder()
	r.Add("c", 1)
	s := r.Snapshot()
	r.Add("c", 1)
	if s.Counters["c"] != 1 {
		t.Fatalf("snapshot mutated by later Add: %d", s.Counters["c"])
	}
}

func TestReset(t *testing.T) {
	r := NewRecorder()
	r.StartOp("a").End()
	r.Add("c", 7)
	r.SetGauge("g", 1)
	r.Reset()
	s := r.Snapshot()
	if len(s.Spans) != 0 || len(s.Counters) != 0 || len(s.Gauges) != 0 {
		t.Fatalf("reset left state behind: %+v", s)
	}
}

func TestSpanDurations(t *testing.T) {
	r := NewRecorder()
	sp := r.StartOp("timed")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	rec := r.Snapshot().Spans[0]
	if rec.Dur < time.Millisecond {
		t.Fatalf("span duration %v implausibly short", rec.Dur)
	}
	if rec.Start < 0 {
		t.Fatalf("span start %v negative", rec.Start)
	}
}

// BenchmarkNoopRecorder proves the disabled instrumentation path (nil
// recorder) costs a few nil checks: StartOp + End + one counter Add.
// The acceptance bar is < 5 ns/op on any modern machine.
func BenchmarkNoopRecorder(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := r.StartOp("ckks.Mult")
		r.Add("ckks.ntt", 12)
		sp.End()
	}
}

// BenchmarkEnabledRecorder is the enabled-path counterpart, for sizing
// the cost of leaving a live recorder attached.
func BenchmarkEnabledRecorder(b *testing.B) {
	r := NewRecorder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := r.StartOp("ckks.Mult")
		r.Add("ckks.ntt", 12)
		sp.End()
	}
}

// BenchmarkCounterAddContended measures Add under contention from every
// P: the workload of parallel limb loops all bumping ring.ntt. The
// sharded (sync.Map + atomic) recorder should scale; compare against
// BenchmarkCounterAddMutexBaseline, the pre-sharding design.
func BenchmarkCounterAddContended(b *testing.B) {
	r := NewRecorder()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Add("ring.ntt", 1)
		}
	})
	if got := r.Counter("ring.ntt"); got != uint64(b.N) {
		b.Fatalf("count = %d, want %d", got, b.N)
	}
}

// BenchmarkCounterAddMutexBaseline is the old single-mutex counter map,
// kept as the comparison point for the sharded recorder.
func BenchmarkCounterAddMutexBaseline(b *testing.B) {
	var mu sync.Mutex
	counters := map[string]uint64{}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mu.Lock()
			counters["ring.ntt"]++
			mu.Unlock()
		}
	})
	if got := counters["ring.ntt"]; got != uint64(b.N) {
		b.Fatalf("count = %d, want %d", got, b.N)
	}
}
