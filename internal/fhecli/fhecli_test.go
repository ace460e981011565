package fhecli

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fherr"
)

// run executes a subcommand line against a scratch buffer.
func run(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := Run(args, &buf)
	return buf.String(), err
}

// setupKeys creates a small key directory in a temp dir.
func setupKeys(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "keys")
	out, err := run(t, "keygen", "-dir", dir, "-logn", "10", "-levels", "3", "-rots", "1,3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "keys written") {
		t.Fatalf("unexpected keygen output: %q", out)
	}
	return dir
}

func TestEndToEndWorkflow(t *testing.T) {
	dir := setupKeys(t)
	tmp := filepath.Dir(dir)
	ctA := filepath.Join(tmp, "a.bin")
	ctB := filepath.Join(tmp, "b.bin")

	if _, err := run(t, "encrypt", "-dir", dir, "-out", ctA, "1.5", "2.0", "-3.25"); err != nil {
		t.Fatal(err)
	}
	if _, err := run(t, "encrypt", "-dir", dir, "-out", ctB, "0.5", "1.0", "2.0"); err != nil {
		t.Fatal(err)
	}

	// add
	sum := filepath.Join(tmp, "sum.bin")
	if _, err := run(t, "add", "-dir", dir, "-out", sum, ctA, ctB); err != nil {
		t.Fatal(err)
	}
	out, err := run(t, "decrypt", "-dir", dir, "-slots", "3", sum)
	if err != nil {
		t.Fatal(err)
	}
	assertSlots(t, out, []float64{2.0, 3.0, -1.25})

	// mul
	prod := filepath.Join(tmp, "prod.bin")
	if _, err := run(t, "mul", "-dir", dir, "-out", prod, ctA, ctB); err != nil {
		t.Fatal(err)
	}
	out, err = run(t, "decrypt", "-dir", dir, "-slots", "3", prod)
	if err != nil {
		t.Fatal(err)
	}
	assertSlots(t, out, []float64{0.75, 2.0, -6.5})

	// rotate
	rot := filepath.Join(tmp, "rot.bin")
	if _, err := run(t, "rotate", "-dir", dir, "-by", "1", "-out", rot, ctA); err != nil {
		t.Fatal(err)
	}
	out, err = run(t, "decrypt", "-dir", dir, "-slots", "2", rot)
	if err != nil {
		t.Fatal(err)
	}
	assertSlots(t, out, []float64{2.0, -3.25})

	// info
	out, err = run(t, "info", prod)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "level 2") {
		t.Errorf("info output missing level: %q", out)
	}
}

// assertSlots parses "slot i: v" lines and compares with tolerance.
func assertSlots(t *testing.T, out string, want []float64) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < len(want) {
		t.Fatalf("only %d output lines: %q", len(lines), out)
	}
	for i, w := range want {
		var idx int
		var v float64
		if _, err := fmt.Sscanf(lines[i], "slot %d: %f", &idx, &v); err != nil {
			t.Fatalf("unparsable line %q: %v", lines[i], err)
		}
		if d := v - w; d > 1e-3 || d < -1e-3 {
			t.Errorf("slot %d: got %v, want %v", i, v, w)
		}
	}
}

func TestErrors(t *testing.T) {
	dir := setupKeys(t)
	cases := []struct {
		args []string
		code int // fherr.ExitCode of the returned error
	}{
		{nil, fherr.ExitUsage},
		{[]string{"bogus"}, fherr.ExitUsage},
		{[]string{"-chaos"}, fherr.ExitUsage},                                              // no fault-injection suite in fhe
		{[]string{"-chaos-out", "x", "info", "x"}, fherr.ExitUsage},                        // nor its report
		{[]string{"-flight-out", "x", "info", "x"}, fherr.ExitUsage},                       // nor a dump-on-fault file
		{[]string{"encrypt", "-dir", dir}, fherr.ExitUsage},                                // no values
		{[]string{"encrypt", "-dir", dir, "notanumber"}, fherr.ExitFailure},                // bad value
		{[]string{"encrypt", "-dir", "/nonexistent", "1"}, fherr.ExitFailure},              // missing keys
		{[]string{"add", "-dir", dir, "only-one.bin"}, fherr.ExitUsage},                    // wrong arity
		{[]string{"decrypt", "-dir", dir, "/nonexistent/ct.bin"}, fherr.ExitFailure},       // missing ct
		{[]string{"keygen", "-dir", dir, "-logn", "20"}, fherr.ExitFailure},                // bad logn
		{[]string{"keygen", "-dir", dir, "-levels", "99"}, fherr.ExitFailure},              // bad levels
		{[]string{"keygen", "-dir", dir, "-rots", "0"}, fherr.ExitFailure},                 // bad rotation
		{[]string{"rotate", "-dir", dir, "-by", "7", "/nonexistent/x"}, fherr.ExitFailure}, // missing file
	}
	for _, tc := range cases {
		_, err := run(t, tc.args...)
		if err == nil {
			t.Errorf("expected error for %v", tc.args)
		} else if got := fherr.ExitCode(err); got != tc.code {
			t.Errorf("%v: exit code %d, want %d (%v)", tc.args, got, tc.code, err)
		}
	}
}

func TestRotationWithoutKeyFails(t *testing.T) {
	dir := setupKeys(t) // keyed rotations: 1, 3
	tmp := filepath.Dir(dir)
	ct := filepath.Join(tmp, "x.bin")
	if _, err := run(t, "encrypt", "-dir", dir, "-out", ct, "1", "2"); err != nil {
		t.Fatal(err)
	}
	if _, err := run(t, "rotate", "-dir", dir, "-by", "5", "-out", filepath.Join(tmp, "y.bin"), ct); err == nil {
		t.Error("rotation without a key should fail cleanly")
	}
}

func TestSplitCSV(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"1,2,3", []string{"1", "2", "3"}},
		{"", nil},
		{"7", []string{"7"}},
		{"1,,2", []string{"1", "2"}},
	} {
		got := splitCSV(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("splitCSV(%q) = %v", tc.in, got)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("splitCSV(%q) = %v", tc.in, got)
			}
		}
	}
}

func TestInnerSumSubcommand(t *testing.T) {
	dir := setupKeys(t) // rotations 1, 3 are keyed; sum -n 2 needs only 1
	tmp := filepath.Dir(dir)
	ct := filepath.Join(tmp, "v.bin")
	if _, err := run(t, "encrypt", "-dir", dir, "-out", ct, "1", "2", "3", "4"); err != nil {
		t.Fatal(err)
	}
	sum := filepath.Join(tmp, "s.bin")
	if _, err := run(t, "sum", "-dir", dir, "-n", "2", "-out", sum, ct); err != nil {
		t.Fatal(err)
	}
	out, err := run(t, "decrypt", "-dir", dir, "-slots", "1", sum)
	if err != nil {
		t.Fatal(err)
	}
	assertSlots(t, out, []float64{3}) // 1 + 2

	// Folding 4 slots needs rotation 2, which is not keyed: clean error.
	if _, err := run(t, "sum", "-dir", dir, "-n", "4", "-out", sum, ct); err == nil {
		t.Error("sum without the needed rotation key should fail")
	}
	// Non-power-of-two width rejected.
	if _, err := run(t, "sum", "-dir", dir, "-n", "3", "-out", sum, ct); err == nil {
		t.Error("sum with n=3 should fail")
	}
}

// TestWorkersFlagBitIdentical checks that the leading -workers flag is
// accepted and that a parallel evaluation writes the exact bytes the
// serial one does (encryption is randomized, so only the deterministic
// evaluate step is compared).
func TestWorkersFlagBitIdentical(t *testing.T) {
	dir := setupKeys(t)
	tmp := filepath.Dir(dir)
	ctA := filepath.Join(tmp, "a.bin")
	if _, err := run(t, "encrypt", "-dir", dir, "-out", ctA, "1.5", "2.0"); err != nil {
		t.Fatal(err)
	}
	serial := filepath.Join(tmp, "serial.bin")
	if _, err := run(t, "mul", "-dir", dir, "-out", serial, ctA, ctA); err != nil {
		t.Fatal(err)
	}
	par := filepath.Join(tmp, "par.bin")
	if _, err := run(t, "-workers", "2", "mul", "-dir", dir, "-out", par, ctA, ctA); err != nil {
		t.Fatal(err)
	}
	defer func() { workerCount = 1 }()
	a, err := os.ReadFile(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("-workers 2 product differs from the serial product")
	}
}
