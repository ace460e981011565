package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// runMeta stamps machine-readable reports with enough provenance to
// compare runs across commits and machines: which code produced the
// numbers, on what CPU, with how much parallelism. Every field is
// best-effort — a missing git binary or a non-Linux /proc simply leaves
// the field empty rather than failing the run.
type runMeta struct {
	GitSHA     string `json:"git_sha,omitempty"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model,omitempty"`
	Params     string `json:"params,omitempty"`
}

// collectMeta gathers the runtime environment; params describes the
// workload configuration of the run (free-form, report-specific).
func collectMeta(params string) runMeta {
	return runMeta{
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Params:     params,
	}
}

// gitSHA returns the short commit hash of the working tree, or "" when
// git (or a repository) is unavailable.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// cpuModel reads the first "model name" line of /proc/cpuinfo (Linux);
// other platforms report "".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// writeReport marshals a metadata-stamped report to the path out, or to
// w when out is "-".
func writeReport(w io.Writer, report any, out string) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err := w.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote report to %s\n", out)
	return nil
}
