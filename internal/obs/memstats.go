package obs

import "runtime"

// Runtime memory telemetry: heap/GC/goroutine gauges read from
// runtime.MemStats into a recorder, so the end-of-run stats table
// shows the process's live working set next to the kernel bytes-moved
// counters. MAD's thesis is that FHE cost is
// governed by memory behavior; this is the runtime half of measuring it.

// PublishMemStats reads runtime.MemStats once and publishes the gauges:
//
//	mem.heap_alloc_bytes   live heap objects
//	mem.heap_inuse_bytes   heap spans in use
//	mem.heap_sys_bytes     heap reserved from the OS
//	mem.stack_inuse_bytes  goroutine stacks
//	mem.working_set_bytes  heap_inuse + stack_inuse — the process's
//	                       resident working set, the runtime counterpart
//	                       of the paper's on-chip working-set analysis
//	mem.num_gc             completed GC cycles
//	mem.gc_pause_total_ns  cumulative stop-the-world pause
//	mem.gc_cpu_fraction    fraction of CPU spent in GC
//	mem.goroutines         live goroutines
//
// Safe on a nil recorder (no-op). ReadMemStats stops the world briefly;
// call it at op boundaries, not inside kernels.
func PublishMemStats(r *Recorder) {
	if r == nil {
		return
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.SetGauge("mem.heap_alloc_bytes", float64(m.HeapAlloc))
	r.SetGauge("mem.heap_inuse_bytes", float64(m.HeapInuse))
	r.SetGauge("mem.heap_sys_bytes", float64(m.HeapSys))
	r.SetGauge("mem.stack_inuse_bytes", float64(m.StackInuse))
	r.SetGauge("mem.working_set_bytes", float64(m.HeapInuse+m.StackInuse))
	r.SetGauge("mem.num_gc", float64(m.NumGC))
	r.SetGauge("mem.gc_pause_total_ns", float64(m.PauseTotalNs))
	r.SetGauge("mem.gc_cpu_fraction", m.GCCPUFraction)
	r.SetGauge("mem.goroutines", float64(runtime.NumGoroutine()))
}
