package main

import (
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"parahash/internal/core"
	"parahash/internal/dist"
	"parahash/internal/faultinject"
	"parahash/internal/manifest"
)

func TestRunWorkersRequireCheckpointDir(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-profile", "tiny", "-workers", "2"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Fatalf("err = %v, want checkpoint-dir requirement", err)
	}
	err = run([]string{"-profile", "tiny", "-dist-worker", "w0"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Fatalf("err = %v, want checkpoint-dir requirement", err)
	}
}

// TestDistE2E is the distributed end-to-end fault drill from the issue: a
// 4-worker build where worker w1 is SIGKILL'd mid-Step-2 (result published
// but unreported) and worker w2 hangs past its lease, which must still
// converge byte-identically to a single-process build, leave zero fenced
// litter, and leave a manifest that is scrub-clean on restart.
func TestDistE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec e2e skipped in -short")
	}
	dir := t.TempDir()
	cleanOut := filepath.Join(dir, "clean.dbg")
	distOut := filepath.Join(dir, "dist.dbg")
	ck := filepath.Join(dir, "ck")

	// Reference: single-process run of the same profile.
	var buf bytes.Buffer
	if err := run([]string{"-profile", "tiny", "-partitions", "16", "-threads", "4",
		"-checkpoint-dir", filepath.Join(dir, "ck-clean"), "-out", cleanOut}, &buf); err != nil {
		t.Fatal(err)
	}

	// Distributed run: workers are this test binary re-executed into the
	// worker helper, with per-worker fault points armed through the
	// environment exactly as they would be against the real binary.
	orig := workerCommand
	defer func() { workerCommand = orig }()
	workerCommand = func(args []string) (*exec.Cmd, error) {
		id := ""
		for _, a := range args {
			if s, ok := strings.CutPrefix(a, "-dist-worker="); ok {
				id = s
			}
		}
		cmd := exec.Command(os.Args[0], "-test.run", "^TestDistWorkerHelper$")
		cmd.Env = append(os.Environ(),
			"PARAHASH_E2E_HELPER=1",
			"PARAHASH_E2E_ARGS="+strings.Join(args, "\x1f"))
		switch id {
		case "w1":
			// SIGKILL after publishing its second fenced result, before
			// reporting it.
			cmd.Env = append(cmd.Env, faultinject.CrashEnv+"="+dist.CrashPoint+":2")
		case "w2":
			// Wedge mid-lease, right after the first heartbeat; only lease
			// expiry reclaims it.
			cmd.Env = append(cmd.Env, faultinject.StallEnv+"="+dist.CrashPoint+":1")
		}
		return cmd, nil
	}

	buf.Reset()
	err := run([]string{"-profile", "tiny", "-partitions", "16", "-threads", "4",
		"-checkpoint-dir", ck, "-out", distOut,
		"-workers", "4", "-dist-lease-ms", "600"}, &buf)
	if err != nil {
		t.Fatalf("distributed build failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "distributed build: 4 workers") {
		t.Errorf("distributed summary missing:\n%s", buf.String())
	}

	// Byte-identical convergence with the single-process reference.
	a, err := os.ReadFile(cleanOut)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(distOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("distributed output differs from single-process build")
	}

	// Zero fenced-write corruption: no token-suffixed files survive, no
	// leases remain journalled.
	entries, err := os.ReadDir(filepath.Join(ck, "data", "subgraphs"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".t") {
			t.Fatalf("fenced orphan %q survived the sweep", e.Name())
		}
	}
	m, err := manifest.Load(filepath.Join(ck, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Leases) != 0 {
		t.Fatalf("%d leases left in the manifest", len(m.Leases))
	}
	if len(m.Step2) != 16 {
		t.Fatalf("manifest journals %d of 16 partitions", len(m.Step2))
	}

	// The checkpoint a restart would see is scrub-clean.
	rep, err := core.Scrub(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("post-build checkpoint not scrub-clean: %+v", rep)
	}
}

// withWorkerHelper makes -workers builds in this test re-execute the test
// binary into TestDistWorkerHelper instead of the installed binary.
func withWorkerHelper(t *testing.T) {
	orig := workerCommand
	t.Cleanup(func() { workerCommand = orig })
	workerCommand = func(args []string) (*exec.Cmd, error) {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestDistWorkerHelper$")
		cmd.Env = append(os.Environ(),
			"PARAHASH_E2E_HELPER=1",
			"PARAHASH_E2E_ARGS="+strings.Join(args, "\x1f"))
		return cmd, nil
	}
}

// TestDistWorkerHelper is the re-exec target for TestDistE2E; a no-op in a
// normal test run. It exits the process directly so the test framework's
// "PASS" line never lands on stdout, which is the worker protocol channel.
func TestDistWorkerHelper(t *testing.T) {
	if os.Getenv("PARAHASH_E2E_HELPER") != "1" {
		t.Skip("helper for TestDistE2E")
	}
	args := strings.Split(os.Getenv("PARAHASH_E2E_ARGS"), "\x1f")
	if err := run(args, io.Discard); err != nil {
		os.Stderr.WriteString("parahash worker helper: " + err.Error() + "\n")
		os.Exit(1)
	}
	os.Exit(0)
}
