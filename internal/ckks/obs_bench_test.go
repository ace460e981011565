package ckks

import (
	"testing"

	"repro/internal/obs"
)

// BenchmarkSpanNilRecorder pins the disabled-path cost in isolation: a
// StartSpan/End pair on a nil recorder must not allocate and must cost
// only the nil checks.
func BenchmarkSpanNilRecorder(b *testing.B) {
	var rec *obs.Recorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := rec.StartSpan("op")
		rec.Add("k", 1)
		sp.End()
	}
}

// BenchmarkOpSpanNilRecorder pins the disabled cost of the hierarchy
// primitives used on every evaluator op.
func BenchmarkOpSpanNilRecorder(b *testing.B) {
	var rec *obs.Recorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := rec.StartOp("op")
		sp.SetAttr("k", 1)
		rec.StartLinked("leaf").End()
		sp.End()
	}
}
