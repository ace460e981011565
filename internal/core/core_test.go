package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/simfhe"
)

func TestTable4HasEveryPaperRow(t *testing.T) {
	rows := Table4()
	want := []string{"PtAdd", "Add", "PtMult", "Decomp", "ModUp", "KSKInnerProd",
		"ModDown", "Mult", "Automorph", "Rotate", "Conjugate", "Bootstrap"}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, name := range want {
		if rows[i].Name != name {
			t.Errorf("row %d = %q, want %q", i, rows[i].Name, name)
		}
		if rows[i].Paper.GB <= 0 {
			t.Errorf("row %q has no paper reference", name)
		}
	}
	// Rotate and Conjugate have identical implementations (Table 4 note).
	var rot, conj simfhe.Cost
	for _, r := range rows {
		switch r.Name {
		case "Rotate":
			rot = r.Cost
		case "Conjugate":
			conj = r.Cost
		}
	}
	if rot != conj {
		t.Error("Rotate and Conjugate should cost the same")
	}
}

func TestFigure2Shape(t *testing.T) {
	pts := Figure2()
	if len(pts) != 5 {
		t.Fatalf("got %d configurations, want 5", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Cost.Bytes() >= pts[i-1].Cost.Bytes() {
			t.Errorf("%s did not reduce DRAM over %s", pts[i].Name, pts[i-1].Name)
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	pts := Figure3()
	if len(pts) != 4 {
		t.Fatalf("got %d configurations, want 4", len(pts))
	}
	// The final configuration must beat the caching-only baseline on both
	// axes.
	first, last := pts[0].Cost, pts[len(pts)-1].Cost
	if last.Ops() >= first.Ops() || last.Bytes() >= first.Bytes() {
		t.Error("full MAD stack did not improve on caching-only")
	}
}

func TestTable5ReturnsAllThree(t *testing.T) {
	baseline, paperOpt, best := Table5()
	if baseline.Dnum != 3 || paperOpt.Dnum != 2 {
		t.Error("canonical parameter rows changed")
	}
	if best.Throughput <= 0 || best.Params.Validate() != nil {
		t.Errorf("search optimum invalid: %+v", best)
	}
}

func TestJSONExport(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(back.Table4) != 12 || len(back.Figure2) != 5 || len(back.Figure3) != 4 || len(back.Table6) != 5 {
		t.Errorf("report shape wrong: %d/%d/%d/%d", len(back.Table4), len(back.Figure2), len(back.Figure3), len(back.Table6))
	}
	if back.Table5.PaperOptimal.Dnum != 2 {
		t.Error("Table 5 paper-optimal row corrupted")
	}
	if len(back.Figure6LR) == 0 || len(back.Figure6ResNet) == 0 {
		t.Error("Figure 6 data missing")
	}
	// AI fields must be consistent with the raw counters.
	for _, row := range back.Table4 {
		ops := row.Cost.MulMod + row.Cost.AddMod
		bytesTotal := row.Cost.CtReadBytes + row.Cost.CtWriteBytes + row.Cost.KeyReadBytes + row.Cost.PtReadBytes
		if bytesTotal == 0 {
			continue
		}
		if ai := float64(ops) / float64(bytesTotal); math.Abs(ai-row.Cost.AI) > 1e-9 {
			t.Errorf("%s: serialized AI %.4f inconsistent with counters %.4f", row.Name, row.Cost.AI, ai)
		}
	}
	// Attribution trees: present, phase-structured, and each parent's
	// byte total at least covers every child's (inclusive costs nest).
	if back.Attribution.Mult.Name != "Mult" || len(back.Attribution.Mult.Children) == 0 {
		t.Error("Mult attribution tree missing or empty")
	}
	if n := len(back.Attribution.Bootstrap.Children); n != 4 {
		t.Errorf("bootstrap attribution has %d phases, want 4", n)
	}
	var checkNesting func(t2 CostTreeJSON)
	checkNesting = func(node CostTreeJSON) {
		parent := node.Cost.CtReadBytes + node.Cost.CtWriteBytes + node.Cost.KeyReadBytes + node.Cost.PtReadBytes
		for _, ch := range node.Children {
			if b := ch.Cost.CtReadBytes + ch.Cost.CtWriteBytes + ch.Cost.KeyReadBytes + ch.Cost.PtReadBytes; b > parent+parent/2 {
				t.Errorf("%s: child %s bytes %d exceed parent %d beyond credit slack", node.Name, ch.Name, b, parent)
			}
			checkNesting(ch)
		}
	}
	checkNesting(back.Attribution.Bootstrap)
}
