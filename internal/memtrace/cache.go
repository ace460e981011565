package memtrace

// The cache simulator: the analytic model's one on-chip capacity
// (simfhe.CacheConfig) as a fully associative LRU cache of 64-byte
// lines. It consumes a recorded Access stream and emits measured DRAM
// traffic. With no sets there are no conflict misses, so the traffic
// depends on the order and sizes of the accesses, not on where the heap
// put the buffers.
//
// Policy choices, picked to match the analytic model's accounting:
//
//   - Write-allocate without fetch: a write miss installs the line dirty
//     and does not charge a fill read. Kernels overwrite whole limb rows,
//     so fetching the stale line would double-count every produced limb.
//     The hooks record a Write at every point a buffer is (re)filled, so
//     a later read of that buffer is a hit or a writeback+refill, never a
//     spurious compulsory miss.
//   - Lines remember the class they were installed under; writebacks
//     (evictions and the final flush) charge that install class. Read
//     misses charge the accessing event's resolved class. This makes
//     infinite-cache traffic exactly "compulsory reads in, dirty
//     footprint out", which the conservation test pins down.
//   - CapacityBytes == 0 never evicts: every line misses exactly once and
//     stays resident until the flush.
type Geometry struct {
	// CapacityBytes is the on-chip capacity; 0 simulates an infinite
	// cache (compulsory misses only).
	CapacityBytes uint64
}

// LineBytes is the replayed cache-line size.
const LineBytes = 64

// pageLines is how many consecutive lines one index entry holds: the
// replay looks a page up once, not once per line.
const pageLines = 64

// Traffic is the measured DRAM traffic of one replay: bytes that crossed
// the cache boundary, split by direction and operand class.
type Traffic struct {
	ReadBytes  [NumClasses]uint64
	WriteBytes [NumClasses]uint64
}

// TotalRead returns read bytes summed over classes.
func (t Traffic) TotalRead() uint64 {
	var s uint64
	for _, v := range t.ReadBytes {
		s += v
	}
	return s
}

// TotalWrite returns write bytes summed over classes.
func (t Traffic) TotalWrite() uint64 {
	var s uint64
	for _, v := range t.WriteBytes {
		s += v
	}
	return s
}

// Total returns all DRAM bytes moved.
func (t Traffic) Total() uint64 { return t.TotalRead() + t.TotalWrite() }

// line is one line slot of a page. Resident lines form the LRU list.
type line struct {
	prev, next *line
	pg         *page
	resident   bool
	dirty      bool
	class      Class // install class, charged on writeback
}

// page is the slots of pageLines consecutive lines.
type page struct {
	key      uintptr // line address / pageLines
	resident int
	lines    [pageLines]line
}

// sim replays an access stream through one fully associative LRU cache.
type sim struct {
	limit    int // resident-line capacity; 0 never evicts
	resident int
	pages    map[uintptr]*page
	lru      line // sentinel: lru.next is the most recent line, lru.prev the least
	traffic  Traffic
}

func newSim(g Geometry) *sim {
	s := &sim{pages: make(map[uintptr]*page)}
	if g.CapacityBytes > 0 {
		s.limit = max(1, int(g.CapacityBytes/LineBytes))
	}
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	return s
}

// access replays one event whose class has already been resolved.
func (s *sim) access(a Access, class Class) {
	if a.Bytes <= 0 {
		return
	}
	first := a.Addr / LineBytes
	last := (a.Addr + uintptr(a.Bytes) - 1) / LineBytes
	var pg *page
	for tag := first; tag <= last; tag++ {
		if pg == nil || pg.key != tag/pageLines {
			pg = s.page(tag/pageLines, !a.Discard)
		}
		if pg == nil {
			tag |= pageLines - 1 // nothing resident on this page to discard
			continue
		}
		l := &pg.lines[tag%pageLines]
		if a.Discard {
			if l.resident {
				s.drop(l)
			}
			continue
		}
		s.touch(l, a.Write, class)
	}
}

// page returns the page with key, creating it when create is set;
// otherwise a missing page is nil.
func (s *sim) page(key uintptr, create bool) *page {
	pg := s.pages[key]
	if pg == nil && create {
		pg = &page{key: key}
		for i := range pg.lines {
			pg.lines[i].pg = pg
		}
		s.pages[key] = pg
	}
	return pg
}

// touch makes l the most recent line. A miss installs it, charging a
// fill read unless it is a write, and evicts the least recent line once
// the cache is over capacity.
func (s *sim) touch(l *line, write bool, class Class) {
	if l.resident {
		l.prev.next, l.next.prev = l.next, l.prev
	} else {
		*l = line{pg: l.pg, resident: true, class: class}
		l.pg.resident++
		s.resident++
		if !write {
			s.traffic.ReadBytes[class] += LineBytes
		}
	}
	l.prev, l.next = &s.lru, s.lru.next
	l.next.prev, s.lru.next = l, l
	l.dirty = l.dirty || write
	if s.limit > 0 && s.resident > s.limit {
		victim := s.lru.prev
		if victim.dirty {
			s.traffic.WriteBytes[victim.class] += LineBytes
		}
		s.drop(victim)
	}
}

// drop invalidates a resident line without charging a writeback: the
// eviction path charges its own, and a discarded dead-scratch line
// (Access.Discard) costs nothing. A range that was partly written back
// before the discard keeps those charges, which is what real hardware
// does when the discard hint arrives after eviction.
func (s *sim) drop(l *line) {
	l.prev.next, l.next.prev = l.next, l.prev
	l.resident = false
	s.resident--
	if l.pg.resident--; l.pg.resident == 0 {
		delete(s.pages, l.pg.key)
	}
}

// flush writes back every dirty resident line, charging its install
// class, so produced data that never got evicted still counts as DRAM
// write traffic.
func (s *sim) flush() {
	for l := s.lru.next; l != &s.lru; l = l.next {
		if l.dirty {
			s.traffic.WriteBytes[l.class] += LineBytes
		}
	}
}

// Measure replays events through a fresh cache of geometry g and flushes,
// returning the measured traffic. classify resolves the class of events
// recorded as ClassCt (typically Tracer.Classify, to apply plaintext
// tags); nil keeps every event's recorded class.
func Measure(events []Access, g Geometry, classify func(uintptr) Class) Traffic {
	s := newSim(g)
	for _, a := range events {
		c := a.Class
		if c == ClassCt && classify != nil {
			c = classify(a.Addr)
		}
		s.access(a, c)
	}
	s.flush()
	return s.traffic
}
