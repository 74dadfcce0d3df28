package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// provenance stamps one benchmark run with what produced its numbers: the
// source commit, the toolchain and host parallelism, the seed, and the
// exact CLI argv and input size of the workload.
type provenance struct {
	Commit      string   `json:"commit"`
	CommitTime  string   `json:"commit_time"`
	Start       string   `json:"start"`
	End         string   `json:"end"`
	GoVersion   string   `json:"go_version"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	NumCPU      int      `json:"nproc"`
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Trace       bool     `json:"trace"`
	Argv        []string `json:"argv"`
	InputMB     float64  `json:"input_mb"`
	InputMbp    float64  `json:"input_mbp"`
	Property    string   `json:"property"`
	SetupRounds int      `json:"setup_rounds"`
	CLIRuns     int      `json:"cli_runs"`
	TracedRuns  int      `json:"traced_runs"`
}

func newProvenance(root string, start time.Time) provenance {
	p := provenance{
		Commit:     "unknown",
		CommitTime: "unknown",
		Start:      start.UTC().Format(time.RFC3339Nano),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	// A checkout without .git (an exported tree) has no commit to report;
	// looking only at root keeps git from searching parent directories.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "log", "-1", "--format=%H %cI").Output(); err == nil {
			if f := strings.Fields(string(out)); len(f) == 2 {
				p.Commit, p.CommitTime = f[0], f[1]
			}
		}
	}
	return p
}
