package core

import (
	"encoding/json"
	"io"

	"repro/internal/simfhe"
	"repro/internal/simfhe/apps"
	"repro/internal/simfhe/design"
)

// Machine-readable export of every experiment, so the tables and figures
// can be re-plotted without re-running the simulator.

// CostJSON is the serialized form of a simulator cost.
type CostJSON struct {
	MulMod              uint64  `json:"mulmod"`
	AddMod              uint64  `json:"addmod"`
	CtReadBytes         uint64  `json:"ct_read_bytes"`
	CtWriteBytes        uint64  `json:"ct_write_bytes"`
	KeyReadBytes        uint64  `json:"key_read_bytes"`
	PtReadBytes         uint64  `json:"pt_read_bytes"`
	OrientationSwitches uint64  `json:"orientation_switches"`
	GOps                float64 `json:"gops"`
	GB                  float64 `json:"gb"`
	AI                  float64 `json:"ai"`
}

func costJSON(c simfhe.Cost) CostJSON {
	return CostJSON{
		MulMod: c.MulMod, AddMod: c.AddMod,
		CtReadBytes: c.CtRead, CtWriteBytes: c.CtWrite,
		KeyReadBytes: c.KeyRead, PtReadBytes: c.PtRead,
		OrientationSwitches: c.OrientationSwitches,
		GOps:                c.GOps(), GB: c.GB(), AI: c.AI(),
	}
}

// CostTreeJSON serializes a cost attribution tree: per node the name,
// the inclusive cost, and the children. The hierarchy mirrors
// simfhe.CostTree, so plotting scripts can build flame graphs or icicle
// charts of the DRAM/ops breakdown directly from the report.
type CostTreeJSON struct {
	Name     string         `json:"name"`
	Cost     CostJSON       `json:"cost"`
	Children []CostTreeJSON `json:"children,omitempty"`
}

func costTreeJSON(t *simfhe.CostTree) CostTreeJSON {
	out := CostTreeJSON{Name: t.Name, Cost: costJSON(t.Total())}
	for _, ch := range t.Children {
		out.Children = append(out.Children, costTreeJSON(ch))
	}
	return out
}

// PaperJSON is a published Table 4 reference triple.
type PaperJSON struct {
	GOps float64 `json:"gops"`
	GB   float64 `json:"gb"`
	AI   float64 `json:"ai"`
}

// Table4JSON is one Table 4 row beside its published numbers.
type Table4JSON struct {
	Name  string    `json:"name"`
	Cost  CostJSON  `json:"cost"`
	Paper PaperJSON `json:"paper"`
}

// Figure2JSON is one Figure 2 bar.
type Figure2JSON struct {
	Name    string   `json:"name"`
	CacheMB int      `json:"cache_mb"`
	Cost    CostJSON `json:"cost"`
}

// Figure3JSON is one Figure 3 bar.
type Figure3JSON struct {
	Name string   `json:"name"`
	Cost CostJSON `json:"cost"`
}

// SearchBestJSON is the parameter search's optimum (Table 5).
type SearchBestJSON struct {
	Params     simfhe.Params `json:"params"`
	Throughput float64       `json:"throughput"`
	RuntimeMs  float64       `json:"runtime_ms"`
	LogQ1      int           `json:"logq1"`
}

// Table6JSON is one design row of Table 6.
type Table6JSON struct {
	Design       string  `json:"design"`
	OrigTput     float64 `json:"orig_throughput"`
	MADTput      float64 `json:"mad_throughput"`
	MADRuntimeMs float64 `json:"mad_runtime_ms"`
	Normalized   float64 `json:"normalized"`
}

// Fig6PointJSON is one application bar.
type Fig6PointJSON struct {
	Label     string  `json:"label"`
	RuntimeS  float64 `json:"runtime_s"`
	Published bool    `json:"published"`
}

// Report is the full experiment dump.
type Report struct {
	Table4  []Table4JSON  `json:"table4"`
	Figure2 []Figure2JSON `json:"figure2"`
	Figure3 []Figure3JSON `json:"figure3"`
	Table5  struct {
		Baseline     simfhe.Params  `json:"baseline"`
		PaperOptimal simfhe.Params  `json:"paper_optimal"`
		SearchBest   SearchBestJSON `json:"search_best"`
	} `json:"table5"`
	Table6        []Table6JSON               `json:"table6"`
	Figure6LR     map[string][]Fig6PointJSON `json:"figure6_lr"`
	Figure6ResNet map[string][]Fig6PointJSON `json:"figure6_resnet"`
	// Attribution holds the hierarchical per-sub-op breakdowns of the
	// headline operations under the fully-optimized configuration.
	Attribution struct {
		Mult      CostTreeJSON `json:"mult"`
		Bootstrap CostTreeJSON `json:"bootstrap"`
	} `json:"attribution"`
}

// BuildReport runs every experiment and assembles the dump.
func BuildReport() Report {
	var r Report
	for _, row := range Table4() {
		r.Table4 = append(r.Table4, Table4JSON{row.Name, costJSON(row.Cost),
			PaperJSON{row.Paper.GOps, row.Paper.GB, row.Paper.AI}})
	}
	for _, pt := range Figure2() {
		r.Figure2 = append(r.Figure2, Figure2JSON{pt.Name, pt.CacheMB, costJSON(pt.Cost)})
	}
	for _, pt := range Figure3() {
		r.Figure3 = append(r.Figure3, Figure3JSON{pt.Name, costJSON(pt.Cost)})
	}
	baseline, paperOpt, best := Table5()
	r.Table5.Baseline = baseline
	r.Table5.PaperOptimal = paperOpt
	r.Table5.SearchBest = SearchBestJSON{best.Params, best.Throughput, best.RuntimeMs, best.LogQ1}
	for _, row := range design.Table6() {
		r.Table6 = append(r.Table6, Table6JSON{row.Original.Name, row.OrigTput,
			row.MAD.Throughput, row.MAD.RuntimeMs, row.Normalized})
	}
	r.Figure6LR = fig6JSON(apps.Figure6LR())
	r.Figure6ResNet = fig6JSON(apps.Figure6ResNet())
	ctx := simfhe.NewCtx(simfhe.Optimal(), simfhe.MB(32), simfhe.AllOpts())
	r.Attribution.Mult = costTreeJSON(ctx.MultTree(ctx.P.L))
	r.Attribution.Bootstrap = costTreeJSON(ctx.BootstrapTree())
	return r
}

func fig6JSON(data map[string][]apps.Figure6Point) map[string][]Fig6PointJSON {
	out := make(map[string][]Fig6PointJSON, len(data))
	for name, pts := range data {
		for _, pt := range pts {
			out[name] = append(out[name], Fig6PointJSON{pt.Label, pt.RuntimeS, pt.Published})
		}
	}
	return out
}

// WriteJSON writes the full report, indented, to w.
func WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(BuildReport())
}
