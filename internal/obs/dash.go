package obs

import (
	"encoding/json"
	"net/http"
	"runtime"
	"time"
)

// Live debug dashboard: /dash serves a zero-dependency HTML page that
// polls /dash/data (JSON) and renders counters, gauges, histogram
// percentiles and flight-recorder status. Everything is computed from a Snapshot, so the handlers are
// safe under concurrent recording.

type dashKV struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

type dashHist struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	P50us float64 `json:"p50_us"`
	P95us float64 `json:"p95_us"`
	P99us float64 `json:"p99_us"`
	MaxUs float64 `json:"max_us"`
}

type dashData struct {
	UptimeSec    float64    `json:"uptime_seconds"`
	Goroutines   int        `json:"goroutines"`
	Recorder     bool       `json:"recorder_attached"`
	Spans        int        `json:"retained_spans"`
	SpanCap      int        `json:"span_cap"`
	DroppedSpans uint64     `json:"dropped_spans"`
	Counters     []dashKV   `json:"counters"`
	Gauges       []dashKV   `json:"gauges"`
	Hists        []dashHist `json:"hists"`
}

func (d *DebugServer) dashData() dashData {
	out := dashData{
		UptimeSec:  time.Since(d.started).Seconds(),
		Goroutines: runtime.NumGoroutine(),
		Recorder:   d.rec != nil,
		Counters:   []dashKV{},
		Gauges:     []dashKV{},
		Hists:      []dashHist{},
	}
	if d.rec == nil {
		return out
	}
	out.SpanCap = d.rec.spanCap
	s := d.rec.Snapshot()
	out.Spans = len(s.Spans)
	out.DroppedSpans = s.Counters[DroppedSpansCounter]
	for _, name := range sortedKeys(s.Counters) {
		out.Counters = append(out.Counters, dashKV{name, float64(s.Counters[name])})
	}
	for _, name := range sortedKeys(s.Gauges) {
		out.Gauges = append(out.Gauges, dashKV{name, s.Gauges[name]})
	}
	for _, name := range sortedKeys(s.Hists) {
		h := s.Hists[name]
		out.Hists = append(out.Hists, dashHist{
			Name:  name,
			Count: h.Count,
			P50us: h.Quantile(0.50) / 1e3,
			P95us: h.Quantile(0.95) / 1e3,
			P99us: h.Quantile(0.99) / 1e3,
			MaxUs: float64(h.Max) / 1e3,
		})
	}
	return out
}

func (d *DebugServer) serveDashData(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(d.dashData())
}

func (d *DebugServer) serveDash(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(dashHTML))
}

// dashHTML is the whole dashboard: no external assets, no frameworks.
// It refreshes from /dash/data every two seconds.
const dashHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>fhe debug dashboard</title>
<style>
 body { font: 13px/1.5 ui-monospace, SFMono-Regular, Menlo, monospace;
        margin: 1.2em; background: #101418; color: #d8dee6; }
 h1 { font-size: 16px; } h2 { font-size: 14px; margin: 1.2em 0 .4em; color: #8fb4d8; }
 table { border-collapse: collapse; min-width: 28em; }
 th, td { padding: 2px 10px; text-align: right; border-bottom: 1px solid #283038; }
 th { color: #7a8694; font-weight: normal; }
 td:first-child, th:first-child { text-align: left; }
 .ok { color: #7ec97e; } .warn { color: #e0b050; } .bad { color: #e06c60; }
 #status { color: #7a8694; }
</style>
</head>
<body>
<h1>fhe debug dashboard <span id="status"></span></h1>
<div id="flight"></div>
<h2>latency histograms</h2>
<table id="hists"><thead><tr><th>name</th><th>count</th><th>p50 µs</th>
<th>p95 µs</th><th>p99 µs</th><th>max µs</th></tr></thead><tbody></tbody></table>
<h2>counters</h2>
<table id="counters"><thead><tr><th>name</th><th>value</th></tr></thead><tbody></tbody></table>
<h2>gauges</h2>
<table id="gauges"><thead><tr><th>name</th><th>value</th></tr></thead><tbody></tbody></table>
<script>
function fmt(v) {
  if (!isFinite(v)) return String(v);
  if (Math.abs(v) >= 1e6 || (v !== 0 && Math.abs(v) < 1e-2)) return v.toExponential(2);
  return Number.isInteger(v) ? v.toLocaleString("en-US") : v.toFixed(2);
}
function fill(id, rows, cols) {
  const tb = document.querySelector("#" + id + " tbody");
  tb.textContent = "";
  for (const r of rows) {
    const tr = document.createElement("tr");
    for (const c of cols) {
      const td = document.createElement("td");
      td.textContent = typeof r[c] === "number" ? fmt(r[c]) : r[c];
      tr.appendChild(td);
    }
    tb.appendChild(tr);
  }
}
async function tick() {
  let d;
  try {
    d = await (await fetch("/dash/data")).json();
    document.getElementById("status").textContent =
      "· up " + fmt(d.uptime_seconds) + "s · " + d.goroutines + " goroutines";
  } catch (e) {
    document.getElementById("status").textContent = "· fetch failed: " + e;
    return;
  }
  const drops = d.dropped_spans || 0;
  document.getElementById("flight").innerHTML =
    "flight recorder: recorder " +
    (d.recorder_attached ? '<span class="ok">attached</span>' : '<span class="bad">absent</span>') +
    " · " + fmt(d.retained_spans) + "/" + fmt(d.span_cap) + " spans retained · " +
    (drops > 0 ? '<span class="warn">' : '<span class="ok">') + fmt(drops) +
    " dropped</span>";
  fill("hists", d.hists || [], ["name", "count", "p50_us", "p95_us", "p99_us", "max_us"]);
  fill("counters", d.counters || [], ["name", "value"]);
  fill("gauges", d.gauges || [], ["name", "value"]);
}
tick();
setInterval(tick, 2000);
</script>
</body>
</html>
`
