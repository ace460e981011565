package memtrace

import "testing"

// escaped defeats escape analysis: the tracer records slice addresses as
// uintptr only, so test slices must live on the heap (like real polys) or
// a goroutine stack move between calls would invalidate the addresses.
var escaped [][]uint64

func heapSlice(n int) []uint64 {
	p := make([]uint64, n)
	escaped = append(escaped, p)
	return p
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	p := heapSlice(8)
	tr.Read(p)
	tr.Write(p)
	tr.ReadClass(p, ClassKey)
	tr.WriteClass(p, ClassScratch)
	tr.Discard(p)
	tr.Tag(p, ClassPt)
	tr.Reset()
	if tr.Len() != 0 || tr.Events() != nil || tr.Slice(0, 10) != nil {
		t.Fatal("nil tracer must report an empty stream")
	}
	if tr.Classify(sliceAddr(p)) != ClassCt {
		t.Fatal("nil tracer must classify everything as ct")
	}
}

// TestNilTracerAllocFree pins the detached cost of the hooks: a nil
// tracer must not allocate, so instrumented kernels stay allocation-free
// in steady state.
func TestNilTracerAllocFree(t *testing.T) {
	var tr *Tracer
	p := heapSlice(64)
	if avg := testing.AllocsPerRun(100, func() {
		tr.Read(p)
		tr.Write(p)
		tr.ReadClass(p, ClassKey)
		tr.WriteClass(p, ClassScratch)
		tr.Discard(p)
	}); avg != 0 {
		t.Errorf("nil tracer hooks allocate %.2f times per call", avg)
	}
}

func TestTracerRecordsEvents(t *testing.T) {
	tr := New()
	a := heapSlice(16)
	b := heapSlice(16)
	tr.Read(a)
	tr.WriteClass(b, ClassScratch)
	tr.ReadClass(a, ClassKey)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	ev := tr.Events()
	if ev[0].Write || ev[0].Class != ClassCt || ev[0].Bytes != 16*8 || ev[0].Addr != sliceAddr(a) {
		t.Errorf("event 0 = %+v", ev[0])
	}
	if !ev[1].Write || ev[1].Class != ClassScratch {
		t.Errorf("event 1 = %+v", ev[1])
	}
	if ev[2].Class != ClassKey {
		t.Errorf("event 2 = %+v", ev[2])
	}

	// Empty slices record nothing.
	tr.Read(nil)
	tr.Write([]uint64{})
	if tr.Len() != 3 {
		t.Fatalf("empty slices recorded: Len = %d", tr.Len())
	}
}

func TestTagClassification(t *testing.T) {
	tr := New()
	pt := heapSlice(32)
	ct := heapSlice(32)
	tr.Tag(pt, ClassPt)

	if got := tr.Classify(sliceAddr(pt)); got != ClassPt {
		t.Errorf("Classify(tagged) = %v, want pt", got)
	}
	if got := tr.Classify(sliceAddr(pt) + 8*16); got != ClassPt {
		t.Errorf("Classify(tagged interior) = %v, want pt", got)
	}
	if got := tr.Classify(sliceAddr(ct)); got != ClassCt {
		t.Errorf("Classify(untagged) = %v, want ct", got)
	}

	// Explicit non-ct event class beats the registry; Ct defers to it.
	tr.Read(pt)
	tr.ReadClass(pt, ClassKey)
	ev := tr.Events()
	if got := tr.Resolve(ev[0]); got != ClassPt {
		t.Errorf("Resolve(ct event on tagged) = %v, want pt", got)
	}
	if got := tr.Resolve(ev[1]); got != ClassKey {
		t.Errorf("Resolve(key event on tagged) = %v, want key", got)
	}

	// Re-tagging the same range is idempotent and updates the class.
	tr.Tag(pt, ClassKey)
	if got := tr.Classify(sliceAddr(pt)); got != ClassKey {
		t.Errorf("Classify after retag = %v, want key", got)
	}

	// Reset keeps tags but drops events.
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("Reset must drop events")
	}
	if got := tr.Classify(sliceAddr(pt)); got != ClassKey {
		t.Error("Reset must keep the tag registry")
	}
}

// TestSlice: a window [from, to) of the stream, taken at two Len
// cursors the way op spans stamp trace.begin/trace.end, is exactly the
// events recorded between them.
func TestSlice(t *testing.T) {
	tr := New()
	a := heapSlice(4)
	tr.Read(a)
	tr.Read(a)
	mid := tr.Len()
	tr.Write(a)
	if got := tr.Slice(mid, tr.Len()); len(got) != 1 || !got[0].Write {
		t.Fatalf("Slice(mid, end) = %+v", got)
	}
	if got := tr.Slice(-5, 100); len(got) != 3 {
		t.Fatalf("clamped Slice = %d events, want 3", len(got))
	}
	if got := tr.Slice(3, 3); got != nil {
		t.Fatalf("empty Slice = %+v", got)
	}
}

func TestClassString(t *testing.T) {
	want := map[Class]string{ClassCt: "ct", ClassKey: "key", ClassPt: "pt", ClassScratch: "scratch", Class(9): "?"}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Class(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
}
