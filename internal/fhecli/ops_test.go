package fhecli

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fherr"
)

// TestOpSubcommands runs every op-table subcommand whose keys keygen
// writes and decrypt-compares its result. Rescaling a fresh ciphertext
// leaves a scale near 1, so its input holds large values and its error
// is compared relative to them. Conjugation has no key in the
// directory, so it fails with the library's typed error, as a missing
// rotation key and a bad inner-sum width do.
func TestOpSubcommands(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "keys")
	if _, err := run(t, "keygen", "-dir", dir, "-logn", "10", "-levels", "3", "-rots", "1,2"); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Dir(dir)
	ctA, ctB, ctBig := filepath.Join(tmp, "a.bin"), filepath.Join(tmp, "b.bin"), filepath.Join(tmp, "big.bin")
	for path, vals := range map[string][]string{
		ctA:   {"1", "2", "3", "4"},
		ctB:   {"0.5", "1", "2", "-1"},
		ctBig: {"1e6", "2e6", "3e6", "4e6"},
	} {
		if _, err := run(t, append([]string{"encrypt", "-dir", dir, "-out", path}, vals...)...); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		args []string
		want []float64
		tol  float64
	}{
		{[]string{"add", ctA, ctB}, []float64{1.5, 3, 5, 3}, 1e-3},
		{[]string{"sub", ctA, ctB}, []float64{0.5, 1, 1, 5}, 1e-3},
		{[]string{"mul", ctA, ctB}, []float64{0.5, 2, 6, -4}, 1e-3},
		{[]string{"square", ctA}, []float64{1, 4, 9, 16}, 1e-3},
		{[]string{"rescale", ctBig}, []float64{1e6, 2e6, 3e6, 4e6}, 1e-3 * 1e6},
		{[]string{"droplevel", "-by", "1", ctA}, []float64{1, 2, 3, 4}, 1e-3},
		{[]string{"rotate", "-by", "1", ctA}, []float64{2, 3, 4, 0}, 1e-3},
		{[]string{"innersum", "-by", "4", ctA}, []float64{10}, 1e-3},
		{[]string{"sum", "-n", "2", ctA}, []float64{3}, 1e-3},
	} {
		out := filepath.Join(tmp, tc.args[0]+".out")
		args := append([]string{tc.args[0], "-dir", dir, "-out", out}, tc.args[1:]...)
		if _, err := run(t, args...); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		got, err := run(t, "decrypt", "-dir", dir, "-slots", fmt.Sprint(len(tc.want)), out)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(strings.TrimSpace(got), "\n") {
			var idx int
			var v float64
			if _, err := fmt.Sscanf(line, "slot %d: %f", &idx, &v); err != nil || math.Abs(v-tc.want[i]) > tc.tol {
				t.Errorf("%s: %q, want slot %d = %v ± %v", tc.args[0], line, i, tc.want[i], tc.tol)
			}
		}
	}

	for _, tc := range []struct {
		args []string
		want error
	}{
		{[]string{"conjugate", ctA}, fherr.ErrKeyMissing},
		{[]string{"rotate", "-by", "5", ctA}, fherr.ErrKeyMissing},
		{[]string{"sum", "-n", "3", ctA}, fherr.ErrDegree},
		{[]string{"sum", "-n", "8", ctA}, fherr.ErrKeyMissing},
	} {
		args := append([]string{tc.args[0], "-dir", dir, "-out", filepath.Join(tmp, "x.bin")}, tc.args[1:]...)
		_, err := run(t, args...)
		if !errors.Is(err, tc.want) || fherr.ExitCode(err) != fherr.ExitValidation {
			t.Errorf("%v: %v (exit %d), want %v (exit %d)", args, err, fherr.ExitCode(err), tc.want, fherr.ExitValidation)
		}
	}
}

// TestParamsFileBounds: a key directory's params file is held to
// keygen's bounds, and refused before any key file is read. The
// directory holds no key files, so an error about one would mean the
// bounds were checked too late.
func TestParamsFileBounds(t *testing.T) {
	for _, levels := range []int{13, 0} {
		dir := t.TempDir()
		params := fmt.Sprintf("logn=10 levels=%d\n", levels)
		if err := os.WriteFile(filepath.Join(dir, "params"), []byte(params), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := run(t, "encrypt", "-dir", dir, "1")
		if err == nil || errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), "outside [1,12]") {
			t.Errorf("params %q: %v, want the levels bound", params, err)
		}
	}
}
