package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"

	"repro/internal/fherr"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current code")

// withStdio points the command's stdin at the null device (a character
// device, as a terminal or `< /dev/null` is, so `run` falls back to its
// demo) and its stderr at errOut, restoring both when the test ends.
func withStdio(t *testing.T, errOut io.Writer) {
	t.Helper()
	null, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	oldIn, oldErr := stdin, stderr
	stdin, stderr = null, errOut
	t.Cleanup(func() {
		stdin, stderr = oldIn, oldErr
		null.Close()
	})
}

// goldenCases is every command whose stdout is pinned byte for byte.
// With exports set, the case also passes -trace-out and -metrics-out and
// pins both files. validate is not here: the measured opt side of its
// key_compress toggle depends on which scratch buffers sync.Pool hands
// back (TestValidateOutStdoutIsJSON checks its output's shape).
var goldenCases = []struct {
	name    string
	args    []string
	exports bool
}{
	{"table4", []string{"table4"}, false},
	{"fig2", []string{"fig2"}, false},
	{"fig3", []string{"fig3"}, false},
	{"table5", []string{"table5"}, false},
	{"table6", []string{"table6"}, false},
	{"fig6_lr", []string{"fig6", "-app=lr"}, false},
	{"fig6_resnet", []string{"fig6", "-app=resnet"}, false},
	{"cost", []string{"cost"}, false},
	{"boot", []string{"boot"}, true},
	{"boot_none_2mb_baseline", []string{"boot", "-opts=none", "-mb=2", "-params=baseline"}, false},
	{"boot_slots12", []string{"boot", "-slots=12"}, false},
	{"trace", []string{"trace"}, true},
	{"trace_bootstrap_caching", []string{"trace", "-op=bootstrap", "-opts=caching"}, false},
	{"run_demo", []string{"run"}, true},
	{"run_deep", []string{"run", "testdata/deep.sched"}, true},
	{"json", []string{"json"}, false},
	{"all", []string{"all"}, false},
}

// withExports inserts -trace-out and -metrics-out into a command line,
// after the command name, and returns the two paths.
func withExports(args []string, dir string) (_ []string, traceOut, metricsOut string) {
	traceOut, metricsOut = filepath.Join(dir, "trace.json"), filepath.Join(dir, "metrics.prom")
	flags := []string{args[0], "-trace-out", traceOut, "-metrics-out", metricsOut}
	return append(flags, args[1:]...), traceOut, metricsOut
}

// TestCommandGolden runs each command in-process through Run and compares
// its stdout, and its -trace-out/-metrics-out files, with testdata.
// `go test ./cmd/simfhe -run TestCommandGolden -update` rewrites them on
// purpose.
func TestCommandGolden(t *testing.T) {
	withStdio(t, io.Discard)
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) { runGolden(t, c.args, c.exports, c.name) })
	}
	// A schedule piped to stdin (`… | simfhe run`) prints and exports
	// exactly what the same schedule as a file argument does.
	t.Run("run_deep_piped", func(t *testing.T) {
		sched := readFile(t, "testdata/deep.sched")
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			w.Write(sched)
			w.Close()
		}()
		oldIn := stdin
		stdin = r
		t.Cleanup(func() { stdin = oldIn; r.Close() })
		runGolden(t, []string{"run"}, true, "run_deep")
	})
}

// runGolden runs one command line and compares its stdout, and with
// exports its -trace-out and -metrics-out files, with the golden files
// named golden.
func runGolden(t *testing.T, args []string, exports bool, golden string) {
	t.Helper()
	traceOut, metricsOut := "", ""
	if exports {
		args, traceOut, metricsOut = withExports(args, t.TempDir())
	}
	var out bytes.Buffer
	if err := Run(args, &out); err != nil {
		t.Fatalf("simfhe %s: %v", strings.Join(args, " "), err)
	}
	compareGolden(t, out.Bytes(), golden+".golden")
	if exports {
		compareGolden(t, readFile(t, traceOut), golden+".trace.json")
		compareGolden(t, readFile(t, metricsOut), golden+".metrics.prom")
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func compareGolden(t *testing.T, got []byte, name string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n%s", path, firstDiff(got, want))
	}
}

// firstDiff shows the first line where got and want part.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, gl, wl)
		}
	}
	return "(lines equal; line endings differ)"
}

// brokenPipe accepts its first write and panics on every later one. A
// process writing to a pipe whose reader has gone (`simfhe … | head -1`)
// is killed by SIGPIPE at that write; the panic stops the command at the
// same point, and Run reports it as an internal error.
type brokenPipe struct{ writes int }

func (p *brokenPipe) Write(b []byte) (int, error) {
	if p.writes++; p.writes > 1 {
		panic(syscall.EPIPE)
	}
	return len(b), nil
}

func TestExitCodes(t *testing.T) {
	withStdio(t, io.Discard)
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no args", nil, fherr.ExitUsage},
		{"unknown command", []string{"nope"}, fherr.ExitUsage},
		{"undefined flag", []string{"boot", "-undefined"}, fherr.ExitUsage},
		{"undefined global flag", []string{"-undefined", "boot"}, fherr.ExitUsage},
		{"help", []string{"-h"}, fherr.ExitOK},
		{"command help", []string{"boot", "-h"}, fherr.ExitOK},
		{"bad -opts", []string{"boot", "-opts=bogus"}, fherr.ExitUsage},
		{"bad -opts on run", []string{"run", "-opts=bogus", "testdata/deep.sched"}, fherr.ExitUsage},
		{"bad -params", []string{"trace", "-params=bogus"}, fherr.ExitUsage},
		{"bad -app", []string{"fig6", "-app=bogus"}, fherr.ExitUsage},
		{"bad -op", []string{"trace", "-op=bogus"}, fherr.ExitUsage},
		{"bad -slots", []string{"boot", "-slots=40"}, fherr.ExitUsage},
		{"missing schedule file", []string{"run", "testdata/missing.sched"}, fherr.ExitFailure},
		{"validate -logn 8", []string{"validate", "-logn", "8"}, fherr.ExitUsage},
		{"validate -logn 18", []string{"validate", "-logn", "18"}, fherr.ExitUsage},
		{"negative -mb on boot", []string{"boot", "-mb", "-5"}, fherr.ExitUsage},
		{"negative -mb on run", []string{"run", "-mb", "-5", "testdata/deep.sched"}, fherr.ExitUsage},
		{"negative -mb on trace", []string{"trace", "-mb", "-5"}, fherr.ExitUsage},
		{"zero -mb is the no-cache point", []string{"boot", "-mb", "0"}, fherr.ExitOK},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := Run(c.args, io.Discard)
			if got := fherr.ExitCode(err); got != c.want {
				t.Errorf("simfhe %s: exit %d (%v), want %d", strings.Join(c.args, " "), got, err, c.want)
			}
		})
	}
	t.Run("recovered panic", func(t *testing.T) {
		err := Run([]string{"table4"}, &brokenPipe{})
		if got := fherr.ExitCode(err); got != fherr.ExitInternal {
			t.Errorf("exit %d (%v), want %d", got, err, fherr.ExitInternal)
		}
	})
}

// TestDocsNameOnlyDispatchedCommands reads the repository's Markdown and
// fails on any `simfhe X` or cmd/simfhe X whose X the commands table does
// not dispatch. The change logs and the benchmark module's docs are
// history or belong to bench/, so they are not read.
func TestDocsNameOnlyDispatchedCommands(t *testing.T) {
	root := filepath.Join("..", "..")
	named := regexp.MustCompile("(?:cmd/simfhe|`simfhe) ([a-z][a-z0-9]*)")
	skip := map[string]bool{"CHANGES.md": true, "ROADMAP.md": true, "bench": true, ".git": true, ".bench_build": true}
	var docs, mentions int
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		if skip[filepath.ToSlash(rel)] || d.Name() == ".git" {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if d.IsDir() || !strings.HasSuffix(p, ".md") {
			return nil
		}
		text, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		docs++
		for _, m := range named.FindAllStringSubmatch(string(text), -1) {
			mentions++
			if _, ok := lookup(m[1]); !ok {
				t.Errorf("%s names %q, which cmd/simfhe does not dispatch", filepath.ToSlash(rel), "simfhe "+m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if docs == 0 || mentions == 0 {
		t.Fatalf("read %d Markdown files naming %d simfhe commands; want both > 0", docs, mentions)
	}
}

// TestExportsSurviveClosedStdout checks that -trace-out and -metrics-out
// are written before the table: a reader that closes stdout after the
// first write must not cost the files.
func TestExportsSurviveClosedStdout(t *testing.T) {
	withStdio(t, io.Discard)
	for _, args := range [][]string{{"boot"}, {"run"}, {"trace"}} {
		t.Run(args[0], func(t *testing.T) {
			full, traceOut, metricsOut := withExports(args, t.TempDir())
			if err := Run(full, &brokenPipe{}); fherr.ExitCode(err) != fherr.ExitInternal {
				t.Fatalf("want the broken pipe to end the command, got %v", err)
			}
			if tr := readFile(t, traceOut); !json.Valid(tr) {
				t.Errorf("%s is not JSON", traceOut)
			}
			if m := readFile(t, metricsOut); !bytes.Contains(m, []byte("# TYPE simfhe_")) {
				t.Errorf("%s holds no simfhe metrics:\n%s", metricsOut, m)
			}
		})
	}
}

// TestValidateOutStdoutIsJSON checks that `validate -out -` leaves stdout
// exactly the JSON report, with the table and verdict on stderr.
func TestValidateOutStdoutIsJSON(t *testing.T) {
	var errOut bytes.Buffer
	withStdio(t, &errOut)
	var out bytes.Buffer
	if err := Run([]string{"validate", "-out", "-"}, &out); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Meta struct {
			GoVersion string `json:"go_version"`
		} `json:"meta"`
		Pass   *bool `json:"pass"`
		Report *struct {
			Rows []json.RawMessage `json:"rows"`
		} `json:"report"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not the JSON report: %v\n%.200s", err, out.Bytes())
	}
	if rep.Meta.GoVersion == "" || rep.Pass == nil || rep.Report == nil || len(rep.Report.Rows) == 0 {
		t.Errorf("report is missing fields: %.300s", out.Bytes())
	}
	verdict := "validation: FAIL"
	if *rep.Pass {
		verdict = "validation: PASS"
	}
	if !strings.Contains(errOut.String(), verdict) {
		t.Errorf("stderr lacks %q:\n%s", verdict, errOut.String())
	}
}
