package main

import (
	"testing"
	"time"

	"repro/internal/simfhe"
)

// TestSpanRecordsNested: two trees laid out on one timeline give spans
// with one ID sequence, every child inside its parent, and the second
// tree starting where the first ends.
func TestSpanRecordsNested(t *testing.T) {
	ctx := simfhe.NewCtx(simfhe.Optimal(), simfhe.MB(32), simfhe.AllOpts())
	tree := ctx.MultTree(ctx.P.L)
	var tb traceBuilder
	tb.add(tree)
	perTree := len(tb.spans)
	if perTree == 0 {
		t.Fatal("no spans emitted")
	}
	tb.add(tree)
	spans := tb.spans
	if len(spans) != 2*perTree {
		t.Fatalf("got %d spans, want %d", len(spans), 2*perTree)
	}
	for i, sp := range spans {
		if sp.ID != uint64(i)+1 {
			t.Fatalf("span %d has ID %d, want %d", i, sp.ID, i+1)
		}
		if sp.Dur < 0 {
			t.Errorf("span %s has negative duration", sp.Name)
		}
	}
	names := map[string]bool{}
	for _, sp := range spans {
		names[sp.Name] = true
		if sp.Parent == 0 {
			continue
		}
		parent := spans[sp.Parent-1]
		if sp.Start < parent.Start || sp.Start+sp.Dur > parent.Start+parent.Dur+time.Nanosecond {
			t.Errorf("span %s [%v,%v] escapes parent %s [%v,%v]",
				sp.Name, sp.Start, sp.Start+sp.Dur, parent.Name, parent.Start, parent.Start+parent.Dur)
		}
	}
	for _, want := range []string{"Mult", "KeySwitch", "Tensor"} {
		if !names[want] {
			t.Errorf("missing span %q", want)
		}
	}
	first, second := spans[0], spans[perTree]
	if second.Parent != 0 || second.Start != first.Start+first.Dur {
		t.Errorf("second tree's root starts at %v with parent %d, want %v and no parent",
			second.Start, second.Parent, first.Start+first.Dur)
	}
	if tb.cursor != second.Start+second.Dur {
		t.Errorf("cursor %v, want the second root's end %v", tb.cursor, second.Start+second.Dur)
	}
}
