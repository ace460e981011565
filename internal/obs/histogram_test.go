package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramRecordAndStats(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1, 2, 3, 100, 1000} {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum != 1106 {
		t.Fatalf("sum = %d, want 1106", s.Sum)
	}
	if s.Max != 1000 {
		t.Fatalf("max = %d, want 1000", s.Max)
	}
	if got, want := s.Mean(), 1106.0/5; got != want {
		t.Fatalf("mean = %v, want %v", got, want)
	}
}

func TestHistogramNilIsNoOp(t *testing.T) {
	var h *Histogram
	h.Record(7) // must not panic
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram recorded")
	}
}

func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	h.Record(0) // bucket 0
	h.Record(1) // bucket 1: [1,2)
	h.Record(2) // bucket 2: [2,4)
	h.Record(3) // bucket 2
	h.Record(4) // bucket 3: [4,8)
	s := h.Snapshot()
	for i, want := range map[int]uint64{0: 1, 1: 1, 2: 2, 3: 1} {
		if s.Buckets[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, s.Buckets[i], want)
		}
	}
}

// TestHistogramQuantile pins the estimator contract: quantiles land
// within the crossing bucket's 2x bounds and never exceed the recorded
// maximum.
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	// 100 observations at ~1000ns, 5 outliers at ~1ms.
	for i := 0; i < 100; i++ {
		h.Record(1000)
	}
	for i := 0; i < 5; i++ {
		h.Record(1_000_000)
	}
	s := h.Snapshot()
	p50 := s.Quantile(0.50)
	if p50 < 512 || p50 >= 2048 {
		t.Errorf("p50 = %v, want within bucket [512, 2048)", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 512*1024 || p99 > 1_000_000 {
		t.Errorf("p99 = %v, want in outlier bucket clamped to max", p99)
	}
	if q := s.Quantile(1.0); q != float64(s.Max) && q > float64(s.Max) {
		t.Errorf("q(1.0) = %v exceeds max %d", q, s.Max)
	}
	if s.Quantile(-1) != s.Quantile(0) {
		t.Error("q<0 not clamped")
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	var s HistogramSnapshot
	if s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

// TestHistogramMerge proves shard roll-up is exact: merging two shards
// equals recording everything into one histogram.
func TestHistogramMerge(t *testing.T) {
	var a, b, all Histogram
	for i := uint64(1); i <= 100; i++ {
		all.Record(i)
		if i%2 == 0 {
			a.Record(i)
		} else {
			b.Record(i)
		}
	}
	sa, sb, sAll := a.Snapshot(), b.Snapshot(), all.Snapshot()
	sa.Merge(sb)
	if sa.Count != sAll.Count || sa.Sum != sAll.Sum || sa.Max != sAll.Max {
		t.Fatalf("merge mismatch: %+v vs %+v", sa.Count, sAll.Count)
	}
	if sa.Buckets != sAll.Buckets {
		t.Fatal("merged buckets differ from single-histogram buckets")
	}
}

func TestRecorderObserveAndHist(t *testing.T) {
	r := NewRecorder()
	r.Observe("x", 10)
	r.ObserveDuration("x", 20*time.Nanosecond)
	r.ObserveDuration("x", -5) // negative clamps to 0
	s := r.Hist("x")
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.Max != 20 {
		t.Fatalf("max = %d, want 20", s.Max)
	}
	var nilRec *Recorder
	nilRec.Observe("x", 1) // must not panic
	if s := nilRec.Hist("x"); s.Count != 0 {
		t.Fatal("nil recorder observed")
	}
}

// TestSpanEndFeedsHistogram pins the free-percentiles property: ending
// a span records its duration into the histogram named after it.
func TestSpanEndFeedsHistogram(t *testing.T) {
	r := NewRecorder()
	clock := time.Now()
	r.now = func() time.Time { return clock }
	sp := r.StartOp("ckks.Mult")
	clock = clock.Add(3 * time.Millisecond)
	sp.End()
	h := r.Hist("ckks.Mult")
	if h.Count != 1 {
		t.Fatalf("histogram count = %d, want 1", h.Count)
	}
	if h.Max != uint64(3*time.Millisecond) {
		t.Fatalf("histogram max = %d, want %d", h.Max, 3*time.Millisecond)
	}
}

// TestPrometheusHistogramFormat checks the exposition: cumulative le=
// buckets in seconds, +Inf closing, _sum/_count lines.
func TestPrometheusHistogramFormat(t *testing.T) {
	r := NewRecorder()
	r.Observe("ckks.Mult", 1000) // 1us -> bucket 10 (upper 1024ns)
	r.Observe("ckks.Mult", 1000)
	r.Observe("ckks.Mult", 3000) // bucket 12 (upper 4096ns)
	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE ckks_Mult_seconds histogram",
		`ckks_Mult_seconds_bucket{le="1.024e-06"} 2`,
		`ckks_Mult_seconds_bucket{le="4.096e-06"} 3`,
		`ckks_Mult_seconds_bucket{le="+Inf"} 3`,
		"ckks_Mult_seconds_sum 5e-06",
		"ckks_Mult_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const goroutines, per = 8, 10000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(uint64(g*per + i + 1))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	if s.Max != goroutines*per {
		t.Fatalf("max = %d, want %d", s.Max, goroutines*per)
	}
	var bucketSum uint64
	for _, n := range s.Buckets {
		bucketSum += n
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
}

func TestPublishMemStats(t *testing.T) {
	r := NewRecorder()
	PublishMemStats(r)
	s := r.Snapshot()
	for _, g := range []string{
		"mem.heap_alloc_bytes", "mem.heap_inuse_bytes", "mem.working_set_bytes", "mem.goroutines",
	} {
		if v, ok := s.Gauges[g]; !ok || v <= 0 || math.IsNaN(v) {
			t.Errorf("gauge %s = %v (present=%v), want positive", g, v, ok)
		}
	}
	PublishMemStats(nil) // must not panic
}
