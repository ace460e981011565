package ring

import "testing"

func TestMaxWorkers(t *testing.T) {
	if got := maxWorkers(10, 4); got != 4 {
		t.Errorf("maxWorkers(10,4) = %d", got)
	}
	if got := maxWorkers(2, 8); got != 2 {
		t.Errorf("maxWorkers(2,8) = %d, want capped at limb count", got)
	}
	if got := maxWorkers(5, 0); got < 1 || got > 5 {
		t.Errorf("maxWorkers(5,0) = %d", got)
	}
	if got := maxWorkers(0, 0); got != 1 {
		t.Errorf("maxWorkers(0,0) = %d, want 1", got)
	}
}
