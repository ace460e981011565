package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/simfhe"
)

func TestTable4HasEveryPaperRow(t *testing.T) {
	rows := table4Rows()
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
			rot = r.Cost.Cost
		case "Conjugate":
			conj = r.Cost.Cost
		}
	}
	if rot != conj {
		t.Error("Rotate and Conjugate should cost the same")
	}
}

func TestFigure2Shape(t *testing.T) {
	rows := figure2Rows()
	if len(rows) != 5 {
		t.Fatalf("got %d configurations, want 5", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Cost.Bytes() >= rows[i-1].Cost.Bytes() {
			t.Errorf("%s did not reduce DRAM over %s", rows[i].Name, rows[i-1].Name)
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	rows := figure3Rows()
	if len(rows) != 4 {
		t.Fatalf("got %d configurations, want 4", len(rows))
	}
	// The final configuration must beat the caching-only baseline on both
	// axes.
	first, last := rows[0].Cost, rows[len(rows)-1].Cost
	if last.Ops() >= first.Ops() || last.Bytes() >= first.Bytes() {
		t.Error("full MAD stack did not improve on caching-only")
	}
}

func TestTable5ReturnsAllThree(t *testing.T) {
	r := table5Rows()
	if r.Baseline.Dnum != 3 || r.PaperOptimal.Dnum != 2 {
		t.Error("canonical parameter rows changed")
	}
	if best := r.SearchBest; best.Throughput <= 0 || best.Params.Validate() != nil {
		t.Errorf("search optimum invalid: %+v", best)
	}
}

// costDoc and treeDoc read the report's JSON schema back independently
// of the types that write it.
type costDoc struct {
	MulMod  uint64  `json:"mulmod"`
	AddMod  uint64  `json:"addmod"`
	CtRead  uint64  `json:"ct_read_bytes"`
	CtWrite uint64  `json:"ct_write_bytes"`
	KeyRead uint64  `json:"key_read_bytes"`
	PtRead  uint64  `json:"pt_read_bytes"`
	AI      float64 `json:"ai"`
}

func (c costDoc) bytes() uint64 { return c.CtRead + c.CtWrite + c.KeyRead + c.PtRead }

type treeDoc struct {
	Name     string    `json:"name"`
	Cost     costDoc   `json:"cost"`
	Children []treeDoc `json:"children"`
}

func TestJSONExport(t *testing.T) {
	var buf bytes.Buffer
	if err := writeJSON(nil, &buf); err != nil {
		t.Fatal(err)
	}
	var back struct {
		Table4 []struct {
			Name string  `json:"name"`
			Cost costDoc `json:"cost"`
		} `json:"table4"`
		Figure2 []json.RawMessage `json:"figure2"`
		Figure3 []json.RawMessage `json:"figure3"`
		Table5  struct {
			PaperOptimal simfhe.Params `json:"paper_optimal"`
		} `json:"table5"`
		Table6        []json.RawMessage          `json:"table6"`
		Figure6LR     map[string]json.RawMessage `json:"figure6_lr"`
		Figure6ResNet map[string]json.RawMessage `json:"figure6_resnet"`
		Attribution   struct {
			Mult      treeDoc `json:"mult"`
			Bootstrap treeDoc `json:"bootstrap"`
		} `json:"attribution"`
	}
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
		if row.Cost.bytes() == 0 {
			continue
		}
		if ai := float64(ops) / float64(row.Cost.bytes()); math.Abs(ai-row.Cost.AI) > 1e-9 {
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
	var checkNesting func(node treeDoc)
	checkNesting = func(node treeDoc) {
		parent := node.Cost.bytes()
		for _, ch := range node.Children {
			if b := ch.Cost.bytes(); b > parent+parent/2 {
				t.Errorf("%s: child %s bytes %d exceed parent %d beyond credit slack", node.Name, ch.Name, b, parent)
			}
			checkNesting(ch)
		}
	}
	checkNesting(back.Attribution.Bootstrap)
}
