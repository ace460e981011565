package main

import (
	"testing"
	"time"

	"repro/internal/obs"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: [30,40] counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent's end
		{ID: 5, Parent: 2, Name: "d", Start: 10, End: 40},  // covers a completely
		{ID: 6, Parent: 1, Name: "e", Start: 35, End: 38},  // inside what a and b already cover
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 50 - 10, 2: 0, 3: 30, 4: 30, 5: 30, 6: 3} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestSelfTableRowsAddUpToTheParent(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Op: 0, Parent: 1, Name: "Mul", Start: 5, End: 60},
		{ID: 3, Op: 0, Parent: 2, Name: "rns.ModUp", Start: 10, End: 30},
		{ID: 4, Op: 0, Parent: 1, Name: "Rescale", Start: 60, End: 95},
		{ID: 5, Op: 1, Name: "op", Start: 100, End: 180},
		{ID: 6, Op: 1, Parent: 5, Name: "Mul", Start: 100, End: 150},
		{ID: 7, Name: "other-root", Start: 0, End: 1000}, // not under an op: left out
	}
	rows, unaccounted, total := selfTable(spans, "op")
	if total != 180 || unaccounted != 10+30 {
		t.Errorf("total %d unaccounted %d, want 180 and 40", total, unaccounted)
	}
	sum := unaccounted
	got := map[string]selfRow{}
	for _, r := range rows {
		sum += r.SelfNs
		got[r.Name] = r
	}
	if sum != total {
		t.Errorf("rows + unaccounted = %d, want the parent's %d", sum, total)
	}
	if r := got["Mul"]; r.Count != 2 || r.SelfNs != 35+50 {
		t.Errorf("Mul row = %+v", r)
	}
	if len(rows) != 3 || rows[0].Name != "Mul" {
		t.Errorf("rows = %+v, want 3 rows with the largest first", rows)
	}
}

func TestAdoptLinksRecorderRootsUnderTheOpenBenchmarkSpan(t *testing.T) {
	tr := &tracer{t0: time.Now(), spans: []span{
		{ID: 1, Op: 7, Name: "op", Start: 0, End: 100},
		{ID: 2, Op: 7, Parent: 1, Name: "Mul", Start: 10, End: 50},
		{ID: 3, Op: 7, Parent: 1, Name: "Rescale", Start: 50, End: 90},
	}}
	// The recorder lists spans as they end: children first.
	recorded := []obs.SpanRecord{
		{ID: 11, Parent: 10, Name: "rns.ModUp", Start: 15, Dur: 10},
		{ID: 10, Name: "ckks.Mul", Start: 12, Dur: 30},
		{ID: 12, Name: "ckks.Rescale", Start: 55, Dur: 30},
	}
	tr.adopt(recorded, true)
	byName := map[string]span{}
	for _, s := range tr.spans {
		byName[s.Name] = s
	}
	if p := byName["ckks.Mul"].Parent; p != 2 {
		t.Errorf("ckks.Mul adopted under span %d, want 2 (Mul)", p)
	}
	if p := byName["ckks.Rescale"].Parent; p != 3 {
		t.Errorf("ckks.Rescale adopted under span %d, want 3 (Rescale)", p)
	}
	if p := byName["rns.ModUp"].Parent; p != byName["ckks.Mul"].ID {
		t.Errorf("rns.ModUp has parent %d, want its recorder parent %d", p, byName["ckks.Mul"].ID)
	}
	for _, s := range tr.spans {
		if s.Op != 7 {
			t.Errorf("span %s carries op %d, want 7", s.Name, s.Op)
		}
		if s.Parent >= s.ID {
			t.Errorf("span %s (%d) does not come after its parent %d", s.Name, s.ID, s.Parent)
		}
	}

	flat := &tracer{t0: time.Now(), spans: tr.spans[:3:3]}
	flat.adopt(recorded, false)
	for _, s := range flat.spans[3:] {
		if s.Parent != 0 {
			t.Errorf("unlinked adoption gave %s parent %d", s.Name, s.Parent)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do(1, tr.start(1, 0, "op"), "x", func() { ran = true })
	tr.end(0)
	if !ran {
		t.Error("a nil tracer did not run the function")
	}
}
