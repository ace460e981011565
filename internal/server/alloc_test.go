//go:build !race

package server

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestEvalRepeatAllocatesLikeOneStep: an eval request hands every repeat
// intermediate, and its reply once encoded, back to the evaluator's
// pools, so a 16-step rotate allocates no more than a 1-step one beyond
// evalSlack: the per-Apply bookkeeping (operand slice, bound evaluator,
// key-switch lanes) of the 15 extra steps, 3.6 KB measured without a
// recorder, four times over. A dropped intermediate costs a whole
// ciphertext, 2·4 limbs·2^10 words = 64 KiB, and breaks it. GC is held off
// so the pools keep what they are handed, and the best of a few tries
// discards a goroutine migration's pool misses. (The race detector's
// sync.Pool drops items at random, hence the build tag.)
func TestEvalRepeatAllocatesLikeOneStep(t *testing.T) {
	sess, err := newSession("alloc", TenantConfig{LogN: 10, Levels: 3}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{}
	vals := make([]complex128, sess.params.Slots())
	for i := range vals {
		vals[i] = complex(float64(i%9), 0)
	}
	a := sess.encSk.Encrypt(sess.enc.Encode(vals))

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(repeat int) uint64 {
		req := evalRequest{Op: "rotate", By: 1, Repeat: repeat}
		if _, err := s.evalOp(t.Context(), sess, req, a, nil); err != nil { // warm the pools
			t.Fatal(err)
		}
		best := ^uint64(0)
		var m0, m1 runtime.MemStats
		for try := 0; try < 5; try++ {
			runtime.ReadMemStats(&m0)
			rep, err := s.evalOp(t.Context(), sess, req, a, nil)
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			putBuf(rep.(*wireReply).body)
			best = min(best, m1.TotalAlloc-m0.TotalAlloc)
		}
		return best
	}
	const evalSlack = 16 << 10
	one, sixteen := allocs(1), allocs(16)
	t.Logf("rotate repeat 1 allocates %d B, repeat 16 %d B", one, sixteen)
	if sixteen > one+evalSlack {
		t.Errorf("rotate repeat 16 allocates %d B, repeat 1 %d B: want at most %d B more (an intermediate or the reply is not released)", sixteen, one, evalSlack)
	}
}
