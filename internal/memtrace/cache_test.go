package memtrace

import "testing"

// stream builds an event over a synthetic address range; the simulator
// never dereferences addresses, so tests can use arbitrary ones.
func ev(addr uintptr, bytes int, write bool, class Class) Access {
	return Access{Addr: addr, Bytes: int32(bytes), Write: write, Class: class}
}

func TestInfiniteCacheCompulsoryOnly(t *testing.T) {
	var g Geometry
	events := []Access{
		ev(0, 4096, false, ClassCt),        // 64 lines read
		ev(0, 4096, false, ClassCt),        // all hits
		ev(8192, 4096, true, ClassScratch), // 64 lines written, no fill
		ev(8192, 4096, false, ClassCt),     // hits: resident from the write
	}
	tr := Measure(events, g, nil)
	if tr.ReadBytes[ClassCt] != 4096 {
		t.Errorf("ct read = %d, want 4096 (compulsory only)", tr.ReadBytes[ClassCt])
	}
	// Writeback charges the install class (scratch), at flush.
	if tr.WriteBytes[ClassScratch] != 4096 {
		t.Errorf("scratch write = %d, want 4096", tr.WriteBytes[ClassScratch])
	}
	if tr.TotalWrite() != 4096 || tr.TotalRead() != 4096 {
		t.Errorf("totals = r%d w%d", tr.TotalRead(), tr.TotalWrite())
	}
}

func TestWriteAllocateNoFetch(t *testing.T) {
	g := Geometry{CapacityBytes: 1 << 20}
	tr := Measure([]Access{ev(0, 640, true, ClassCt)}, g, nil)
	if tr.TotalRead() != 0 {
		t.Errorf("write miss charged a fill read: %d bytes", tr.TotalRead())
	}
	if tr.TotalWrite() != 640 {
		t.Errorf("flush writeback = %d, want 640", tr.TotalWrite())
	}
}

func TestEvictionWritebackChargesInstallClass(t *testing.T) {
	// One line of capacity: every distinct line evicts the previous one.
	g := Geometry{CapacityBytes: LineBytes}
	events := []Access{
		ev(0, 64, true, ClassScratch), // install dirty as scratch
		ev(64, 64, false, ClassKey),   // evicts line 0 → scratch writeback, key fill
	}
	tr := Measure(events, g, nil)
	if tr.WriteBytes[ClassScratch] != 64 {
		t.Errorf("eviction writeback class: scratch=%d", tr.WriteBytes[ClassScratch])
	}
	if tr.ReadBytes[ClassKey] != 64 {
		t.Errorf("read miss class: key=%d", tr.ReadBytes[ClassKey])
	}
	if tr.TotalWrite() != 64 {
		t.Errorf("clean key line must not write back: w=%d", tr.TotalWrite())
	}
}

func TestLRUWithinSet(t *testing.T) {
	// Two lines of capacity. Touch A, B, then A again; C must evict B, the
	// least recently used, so A still hits and B misses again. FIFO would
	// evict A instead and read five lines.
	g := Geometry{CapacityBytes: 2 * LineBytes}
	events := []Access{
		ev(0, 64, false, ClassCt),    // A miss
		ev(64, 64, false, ClassCt),   // B miss
		ev(0, 64, false, ClassCt),    // A hit
		ev(1024, 64, false, ClassCt), // C miss, evicts B
		ev(0, 64, false, ClassCt),    // A still resident
		ev(64, 64, false, ClassCt),   // B was evicted: miss
	}
	if tr := Measure(events, g, nil); tr.TotalRead() != 4*LineBytes || tr.TotalWrite() != 0 {
		t.Errorf("read %d B, wrote %d B; want %d B read (A, B, C, B), nothing written",
			tr.TotalRead(), tr.TotalWrite(), 4*LineBytes)
	}
}

// TestReplayPlacementInvariant: the replay depends on which lines an
// access stream touches and in what order, never on where the lines sit.
// One sequence of 16 lines (every fourth written first, then all read)
// replays at two base addresses and two strides — dense lines, and one
// line per 64 (one index page per line) — at a capacity that holds it
// and at one that thrashes. A set-indexed cache maps the strided lines
// to one set and misses on them where the dense ones fit.
func TestReplayPlacementInvariant(t *testing.T) {
	const lines = 16
	replay := func(base, stride uintptr, g Geometry) Traffic {
		var events []Access
		for rep := 0; rep < 2; rep++ {
			for i := uintptr(0); i < lines; i++ {
				write := rep == 0 && i%4 == 0
				events = append(events, ev(base+i*stride*LineBytes, LineBytes, write, ClassCt))
			}
		}
		return Measure(events, g, nil)
	}
	for _, tc := range []struct {
		name          string
		capacityLines uint64
		read, write   uint64 // in lines
	}{
		// Twelve compulsory reads, the four written lines flushed.
		{"fits", 2 * lines, 12, 4},
		// LRU over a cycle twice its capacity misses on every access: the
		// second pass reads all 16 back, and the four dirty lines are
		// written back as they are evicted.
		{"thrashes", lines / 2, 12 + lines, 4},
	} {
		g := Geometry{CapacityBytes: tc.capacityLines * LineBytes}
		want := Traffic{}
		want.ReadBytes[ClassCt] = tc.read * LineBytes
		want.WriteBytes[ClassCt] = tc.write * LineBytes
		for _, base := range []uintptr{0, 0x7f00_0000_1040} {
			for _, stride := range []uintptr{1, pageLines} {
				if got := replay(base, stride, g); got != want {
					t.Errorf("%s: base %#x stride %d lines: %+v, want %+v", tc.name, base, stride, got, want)
				}
			}
		}
	}
}

func TestMeasureAppliesClassifier(t *testing.T) {
	var g Geometry
	events := []Access{
		ev(0, 64, false, ClassCt),     // classifier promotes to pt
		ev(4096, 64, false, ClassKey), // explicit key is kept
	}
	classify := func(addr uintptr) Class {
		if addr < 1024 {
			return ClassPt
		}
		return ClassCt
	}
	tr := Measure(events, g, classify)
	if tr.ReadBytes[ClassPt] != 64 || tr.ReadBytes[ClassKey] != 64 || tr.ReadBytes[ClassCt] != 0 {
		t.Errorf("per-class reads = %v", tr.ReadBytes)
	}
}

func TestLineChopping(t *testing.T) {
	// A 70-byte access at offset 60 spans bytes 60..129: lines 0, 1, 2.
	var g Geometry
	if tr := Measure([]Access{ev(60, 70, false, ClassCt)}, g, nil); tr.Total() != 3*LineBytes {
		t.Errorf("moved %d B, want 3 lines / 192 B", tr.Total())
	}
	// A range across index pages charges each of its lines once.
	span := ev(pageLines*LineBytes-LineBytes, (pageLines+2)*LineBytes, false, ClassCt)
	if tr := Measure([]Access{span, span}, g, nil); tr.Total() != (pageLines+2)*LineBytes {
		t.Errorf("cross-page range moved %d B, want %d", tr.Total(), (pageLines+2)*LineBytes)
	}
	// Zero-byte accesses touch nothing.
	if tr := Measure([]Access{ev(0, 0, false, ClassCt)}, g, nil); tr != (Traffic{}) {
		t.Errorf("zero-byte access: %+v", tr)
	}
}

func TestDiscardDropsDirtyLines(t *testing.T) {
	dirty := []Access{
		ev(0, 640, true, ClassScratch),
		{Addr: 0, Bytes: 640, Discard: true, Class: ClassScratch},
	}
	// Finite cache: discarded dirty lines are invalidated, not written back.
	g := Geometry{CapacityBytes: 1 << 20}
	if tr := Measure(dirty, g, nil); tr.TotalWrite() != 0 {
		t.Errorf("finite: discarded dirty lines wrote back %d bytes", tr.TotalWrite())
	}
	// Infinite cache: same, the flush must find nothing dirty.
	if tr := Measure(dirty, Geometry{}, nil); tr.TotalWrite() != 0 {
		t.Errorf("infinite: discarded dirty lines wrote back %d bytes", tr.TotalWrite())
	}
	// A later read of a discarded range is a fresh compulsory miss.
	reread := append(append([]Access{}, dirty...), ev(0, 64, false, ClassCt))
	if tr := Measure(reread, Geometry{}, nil); tr.ReadBytes[ClassCt] != 64 {
		t.Errorf("read after discard = %d bytes, want 64 (compulsory)", tr.ReadBytes[ClassCt])
	}
	// A partial discard keeps the untouched lines dirty.
	partial := []Access{
		ev(0, 640, true, ClassScratch),
		{Addr: 0, Bytes: 320, Discard: true, Class: ClassScratch},
	}
	if tr := Measure(partial, g, nil); tr.WriteBytes[ClassScratch] != 320 {
		t.Errorf("partial discard: writeback = %d bytes, want 320", tr.WriteBytes[ClassScratch])
	}
	// A discard across index pages, one of them never touched, drops the
	// written lines on each and leaves the line past its end dirty.
	const pageBytes = pageLines * LineBytes
	crossing := []Access{
		ev(pageBytes-320, 640, true, ClassScratch),
		ev(3*pageBytes, 64, true, ClassScratch),
		{Addr: 0, Bytes: 3 * pageBytes, Discard: true, Class: ClassScratch},
	}
	for _, g := range []Geometry{g, {}} {
		if tr := Measure(crossing, g, nil); tr.WriteBytes[ClassScratch] != 64 {
			t.Errorf("cross-page discard at %d B: writeback = %d bytes, want 64", g.CapacityBytes, tr.WriteBytes[ClassScratch])
		}
	}
}
