package ckks

import (
	"testing"

	"repro/internal/obs"
)

// BenchmarkOpSpanNilRecorder pins the disabled cost of the span and
// counter calls made on every evaluator op: on a nil recorder they must
// not allocate and must cost only the nil checks.
func BenchmarkOpSpanNilRecorder(b *testing.B) {
	var rec *obs.Recorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := rec.StartOp("op")
		sp.SetAttr("k", 1)
		rec.Add("k", 1)
		rec.StartLinked("leaf").End()
		sp.End()
	}
}
