package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Sizing of one run. The window is as long as --seconds asks and is only
// extended, on a slow host, until it holds minSamples ops: the percentile
// rule needs 100 samples for a p90.
const (
	minSamples = 100
	warmupOps  = 5
	// Set-up is repeated at least minSetups times, and a cheap one until
	// setupBudget has gone: the median of five 60 ms set-ups is not steady.
	minSetups   = 5
	setupBudget = 2 * time.Second
	// quickSteps replaces every op count under -quick.
	quickSteps = 2
)

// spec is BENCHMARK.json: the benchmark reads its metric names, units and
// bounds from the file the driver reads, so the two cannot disagree.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory, the root of
// the checkout.
func loadSpec() (spec, error) {
	var s spec
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// metricValue and result are the last line of standard output.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report builds the result from the measured values: exactly the metrics
// defs declares, each with its declared unit.
func report(defs []metricDef, values map[string]float64, all []sample) (result, error) {
	r := result{Attempted: len(all), Metrics: make(map[string]metricValue, len(defs))}
	for _, s := range all {
		if s.failed {
			r.Failed++
		}
	}
	r.Correct = r.Failed == 0
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return r, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := r.Metrics[name]; !ok {
			return r, fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
		}
	}
	return r, nil
}

// meta is the metadata block printed with every result and written into
// every trace file.
type meta struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Quick      bool   `json:"quick"`
	// Ops counts what the run did: timed ops, or traced steps per client.
	Ops     int `json:"ops"`
	Clients int `json:"clients"`
	// Cache geometry of the DRAM replay (per-layer ckks.dram_* metrics).
	CacheLimbs    int `json:"cache_limbs"`
	CacheLineB    int `json:"cache_line_bytes"`
	CacheWays     int `json:"cache_ways"`
	CacheCapacity int `json:"cache_capacity_bytes"`
}

func newMeta(w workload, cfg runConfig) meta {
	m := meta{
		GitSHA: "unknown", GoVersion: runtime.Version(), CPUModel: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Quick: cfg.quick,
		CacheLimbs: replayCacheLimbs, CacheLineB: 64, CacheWays: 8,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.GitSHA = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				m.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return m
}

func (m meta) print() {
	data, _ := json.Marshal(m) // a struct of strings and ints marshals
	fmt.Printf("meta %s\n", data)
}

// runConfig is what the command line asks of one run.
type runConfig struct {
	seed    uint64
	seconds int
	quick   bool
}

// drive runs every client of the instance as a closed loop: client c runs
// iterations from, from+1, ... for as long as more says, each on its own
// goroutine, and the samples come back in client order. more is given the
// steps this client has finished and the ops all clients have finished.
// With ref, one kernel per client, each client times the reference before
// and after every step and its samples carry the host's slowdown.
func drive(inst instance, tr *tracer, ref []*refKernel, from int, more func(steps int, ops int64) bool) []sample {
	var total atomic.Int64
	per := make([][]sample, inst.clients())
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var before float64
			if ref != nil {
				before = ref[c].tick()
			}
			for steps := 0; more(steps, total.Load()); steps++ {
				out := inst.step(c, from+steps, tr)
				host := 1.0
				if ref != nil {
					after := ref[c].tick()
					host, before = slowdown(before, after), after
				}
				for i := range out {
					out[i].client, out[i].host = c, host
				}
				total.Add(int64(len(out)))
				per[c] = append(per[c], out...)
			}
		}()
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// steps is the drive condition for a fixed number of steps per client.
func steps(n int) func(int, int64) bool {
	return func(done int, _ int64) bool { return done < n }
}

// ms is the op's latency at nominal host speed; the measured latency
// where the reference was not run around the op.
func (s sample) ms() float64 {
	ms := float64(s.latency.Nanoseconds()) / 1e6
	if s.host > 0 {
		ms /= s.host
	}
	return ms
}

// latenciesMs returns the latencies of the ops that succeeded: a failed
// op has no latency to report, it is counted in failed instead.
func latenciesMs(samples []sample) []float64 {
	var ms []float64
	for _, s := range samples {
		if !s.failed {
			ms = append(ms, s.ms())
		}
	}
	return ms
}

// throughput is correct ops per second of the time the clients spent in
// ops, at nominal host speed, summed over the clients: a client's clock
// stands still while it times the reference.
func throughput(samples []sample, clients int) float64 {
	correct, busyMs := make([]float64, clients), make([]float64, clients)
	for _, s := range samples {
		busyMs[s.client] += s.ms()
		if !s.failed {
			correct[s.client]++
		}
	}
	var perSecond float64
	for c := range correct {
		perSecond += ratio(correct[c], busyMs[c]/1e3)
	}
	return perSecond
}

// byteCounters sums the kernel byte counters of a recorder.
func byteCounters(rec *obs.Recorder) uint64 {
	var sum uint64
	for _, name := range obs.ByteCounters {
		sum += rec.Counter(name)
	}
	return sum
}

const mb = 1 << 20

// runTimed measures the end-to-end metrics of one workload with recorder
// and tracer detached. Its times are at nominal host speed (hostspeed.go).
func runTimed(w workload, cfg runConfig, defs []metricDef) (result, error) {
	ref := []*refKernel{newRefKernel()}
	// Set-up is measured several times and reported as the median, so a
	// later change that moves work into set-up shows in a steady number.
	var inst instance
	var setupS, hostSetup []float64
	budget := setupBudget
	if cfg.quick {
		budget = 0
	}
	for begun := time.Now(); len(setupS) < minSetups || time.Since(begun) < budget; {
		if inst != nil {
			if err := inst.close(); err != nil {
				return result{}, err
			}
			inst = nil
			runtime.GC()
		}
		before := ref[0].tick()
		start := time.Now()
		var err error
		if inst, err = w.setup(cfg.seed); err != nil {
			return result{}, err
		}
		took := time.Since(start).Seconds()
		host := slowdown(before, ref[0].tick())
		setupS, hostSetup = append(setupS, took/host), append(hostSetup, host)
	}
	defer inst.close()
	for len(ref) < inst.clients() {
		ref = append(ref, newRefKernel())
	}

	warmSteps, floor := warmupOps, int64(minSamples)
	if cfg.quick {
		warmSteps, floor = 1, quickSteps
	}
	all := drive(inst, nil, ref, 0, func(_ int, ops int64) bool { return ops < int64(warmSteps) })
	next := len(all) // past every iteration any client has used

	var before, after, live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds) * time.Second)
	window := drive(inst, nil, ref, next, func(_ int, ops int64) bool {
		return ops < floor || time.Now().Before(deadline)
	})
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&live)
	all = append(all, window...)
	next += len(window)

	// One more step per client with a recorder attached gives the kernel
	// byte counters; they are exact counts, so one step is enough.
	rec := inst.observe(true)
	counted := byteCounters(rec)
	extra := drive(inst, nil, nil, next, steps(1))
	counted = byteCounters(rec) - counted
	inst.observe(false)
	all = append(all, extra...)

	ms := latenciesMs(window)
	if len(ms) == 0 {
		r, _ := report(nil, nil, all)
		return r, fmt.Errorf("no op of the timed window succeeded")
	}
	p50, err := percentileOrMax(ms, 0.50, cfg.quick)
	if err != nil {
		return result{}, err
	}
	p90, err := percentileOrMax(ms, 0.90, cfg.quick)
	if err != nil {
		return result{}, err
	}
	// The worst slot of each checked op, and of those the median op: one
	// unlucky op does not set the number, it fails the floor instead.
	var worstSlot, host, measuredMs []float64
	for _, s := range window {
		if s.checked {
			worstSlot = append(worstSlot, s.prec.MinPrecisionBits)
		}
		host = append(host, s.host)
		if !s.failed {
			measuredMs = append(measuredMs, float64(s.latency.Nanoseconds())/1e6)
		}
	}
	values := map[string]float64{
		"setup_s":            median(setupS),
		"latency_ms_p50":     p50,
		"latency_ms_p90":     p90,
		"throughput_ops_s":   throughput(window, inst.clients()),
		"precision_bits_min": median(worstSlot),
		"alloc_mb_per_op":    float64(after.TotalAlloc-before.TotalAlloc) / mb / float64(len(window)),
		"live_heap_mb":       float64(live.HeapAlloc) / mb,
		"kernel_mb_per_op":   float64(counted) / mb / float64(len(extra)),
	}
	m := newMeta(w, cfg)
	m.Ops, m.Clients = len(window), inst.clients()
	m.print()
	fmt.Printf("%s: %d set-ups, %d timed ops in %.2f s, %d latency samples\n", w.name, len(setupS), len(window), elapsed, len(ms))
	// What the clock read, before the host's slowdown was divided out.
	fmt.Printf("%s: host slowdown %.4f in set-up, %.4f in the window (1 = %.1f ms per reference tick); as measured: latency median %.4f ms, %.4f ops/s of the window\n",
		w.name, median(hostSetup), median(host), refNominalMs, median(measuredMs), float64(len(ms))/elapsed)
	return report(defs, values, all)
}
