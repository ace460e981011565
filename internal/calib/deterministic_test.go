//go:build !race

package calib

import (
	"reflect"
	"testing"
)

// TestCalibrationRowsDeterministic: the replay prices the order and
// sizes of the traced accesses, never where the heap put the buffers, so
// a second run in the same process, on fresh allocations, reads every row
// byte for byte as the first did. Not under -race: the race detector's
// sync.Pool drops items at random, so which scratch buffers a window
// reuses, and hence its replayed traffic, changes from run to run.
func TestCalibrationRowsDeterministic(t *testing.T) {
	rep := report(t, 10)
	again, err := Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Rows) != len(rep.Rows) {
		t.Fatalf("%d rows, then %d", len(rep.Rows), len(again.Rows))
	}
	for i, row := range rep.Rows {
		if !reflect.DeepEqual(again.Rows[i], row) {
			t.Errorf("%s: %+v, then %+v", row.Name, row, again.Rows[i])
		}
	}
}
