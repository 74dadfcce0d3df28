package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"parahash/internal/obs"
)

// cliTimeout bounds one CLI run, so a hung build fails the run instead of
// the whole benchmark.
const cliTimeout = 60 * time.Second

// cliSample is one measured run of the parahash process.
type cliSample struct {
	wall     time.Duration
	cpu      time.Duration
	maxRSSKB int64
	// err is set when the run failed: a non-zero exit, a missing output or
	// an output whose digest differs from the oracle.
	err error
}

// runCLI executes the parahash binary once and checks its -out file
// against the oracle digest. The work directory receives the output, the
// checkpoint directory and the stderr log; all three are removed before it
// returns, outside the timed interval.
func runCLI(ctx context.Context, bin string, args []string, out, ckDir, logPath, oracle string) cliSample {
	defer os.Remove(out)
	defer os.RemoveAll(ckDir)
	defer os.Remove(logPath)
	logf, err := os.Create(logPath)
	if err != nil {
		return cliSample{err: err}
	}
	defer logf.Close()

	ctx, cancel := context.WithTimeout(ctx, cliTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stderr = logf // stdout goes to the null device
	cmd.Env = childEnv(filepath.Dir(logPath))

	start := time.Now()
	runErr := cmd.Run()
	s := cliSample{wall: time.Since(start)}
	if ps := cmd.ProcessState; ps != nil {
		// The rusage of a waited child covers the children it waited for
		// in turn, so -workers subprocesses count in both figures.
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
			s.maxRSSKB = ru.Maxrss
		}
	}
	if runErr != nil {
		s.err = fmt.Errorf("parahash %v: %w%s", args, runErr, logTail(logPath))
		return s
	}
	s.err = checkOutput(out, oracle)
	return s
}

// checkOutput compares the output file's digest with the oracle's.
func checkOutput(out, oracle string) error {
	got, err := fileDigest(out)
	if err != nil {
		return fmt.Errorf("reading output: %w", err)
	}
	if got != oracle {
		return fmt.Errorf("output digest %s differs from oracle %s", got, oracle)
	}
	return nil
}

// childEnv keeps the processes the benchmark starts writing their
// temporary files inside the work directory.
func childEnv(tmp string) []string {
	return append(os.Environ(), "TMPDIR="+tmp)
}

// logTail returns the last part of a stderr log, for failure messages.
func logTail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil || len(b) == 0 {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return "; stderr: " + string(b)
}

// readMetrics loads a parahash.metrics/v1 file written by -metrics-json.
func readMetrics(path string) (*obs.BuildMetrics, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m obs.BuildMetrics
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if m.Schema != obs.MetricsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, m.Schema, obs.MetricsSchema)
	}
	return &m, nil
}

// guardRun is the untimed CLI run with -metrics-json that checks the
// workload's defining property and supplies the CLI's counts for the
// traced run's fidelity check.
func guardRun(ctx context.Context, bin string, w workload, in *preparedInput, work string) (*obs.BuildMetrics, cliSample, error) {
	out := filepath.Join(work, "guard.dbg")
	mpath := filepath.Join(work, "guard-metrics.json")
	defer os.Remove(mpath)
	args := append(w.cliArgs(in.path, out, filepath.Join(work, "guard-ck")), "-metrics-json", mpath)
	s := runCLI(ctx, bin, args, out, filepath.Join(work, "guard-ck"), filepath.Join(work, "guard.log"), in.oracle)
	if s.err != nil {
		return nil, s, s.err
	}
	m, err := readMetrics(mpath)
	if err != nil {
		return nil, s, err
	}
	return m, s, nil
}
