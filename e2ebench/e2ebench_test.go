package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"parahash/internal/dna"
	"parahash/internal/fastq"
	"parahash/internal/graph"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 7, 7}, 6},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// TestQuartiles pins the helper to the values Python's
// statistics.quantiles(xs, n=4) prints for the same inputs.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1.5, 2.5, 2.5, 4, 10}, [3]float64{2, 2.5, 7}},
	} {
		q1, q2, q3, ok := quartiles(tc.in)
		got := [3]float64{q1, q2, q3}
		if !ok || math.Abs(got[0]-tc.want[0]) > 1e-12 || math.Abs(got[1]-tc.want[1]) > 1e-12 || math.Abs(got[2]-tc.want[2]) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v", tc.in, got, ok, tc.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported ok")
	}
	if got := relSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("relSpread = %v, want 1", got)
	}
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric name and unit the benchmark prints,
// and that BENCHMARK.json declares exactly those metrics and workloads.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	all := append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...)
	for _, d := range all {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, metricName)
		}
		if !metricUnit.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, metricUnit)
		}
		if seen[d.name] {
			t.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, metricName)
		}
	}

	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []decl, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("BENCHMARK.json declares %d %s metrics, the benchmark prints %d", len(declared), kind, len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark has %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

func testGraph() *graph.Subgraph {
	reads := []fastq.Read{{ID: "r", Bases: dna.EncodeSeq(nil, "ACGTTGCAAGGCTTACGATCGATCGGATCCATGACCAT")}}
	return graph.BuildNaive(reads, 5)
}

func writeGraph(t *testing.T, path string, g *graph.Subgraph) {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptedOutputFails checks that an output differing from the oracle
// in one byte, a truncated or a missing output, and a non-zero exit each
// count as a failed run.
func TestCorruptedOutputFails(t *testing.T) {
	dir := t.TempDir()
	g := testGraph()
	oracle := graphDigest(g)
	out := filepath.Join(dir, "out.dbg")
	writeGraph(t, out, g)
	if err := checkOutput(out, oracle); err != nil {
		t.Fatalf("intact output: %v", err)
	}

	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), b...)
	flipped[len(flipped)/2] ^= 1
	for name, content := range map[string][]byte{"flipped": flipped, "truncated": b[:len(b)-1]} {
		if err := os.WriteFile(out, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if checkOutput(out, oracle) == nil {
			t.Errorf("%s output passed the oracle check", name)
		}
	}
	if checkOutput(filepath.Join(dir, "missing.dbg"), oracle) == nil {
		t.Error("missing output passed the oracle check")
	}

	// The same accounting through runCLI, with a shell standing in for the
	// parahash binary.
	sh, err := exec.LookPath("sh")
	if err != nil {
		t.Skip("no sh:", err)
	}
	good := filepath.Join(dir, "good.dbg")
	writeGraph(t, good, g)
	ctx := context.Background()
	log := filepath.Join(dir, "run.log")
	ck := filepath.Join(dir, "ck")
	if s := runCLI(ctx, sh, []string{"-c", `cp "$0" "$1"`, good, out}, out, ck, log, oracle); s.err != nil {
		t.Errorf("correct output counted as failure: %v", s.err)
	}
	if s := runCLI(ctx, sh, []string{"-c", `printf corrupt > "$0"`, out}, out, ck, log, oracle); s.err == nil {
		t.Error("corrupted output counted as success")
	}
	if s := runCLI(ctx, sh, []string{"-c", `cp "$0" "$1"; exit 3`, good, out}, out, ck, log, oracle); s.err == nil {
		t.Error("non-zero exit counted as success")
	}
}

// TestSeededInputs checks that one seed always gives the same input and
// that two seeds give different ones.
func TestSeededInputs(t *testing.T) {
	dir := t.TempDir()
	spec := inputSpec{name: "t", genomeSize: 2000, readLength: 60, numReads: 300, lambda: 1}
	gen := func(seed int64, name string) (*preparedInput, []byte) {
		p, err := prepareInput(spec, seed, filepath.Join(dir, name), 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(p.path)
		if err != nil {
			t.Fatal(err)
		}
		return p, b
	}
	a, aBytes := gen(1, "a.fastq")
	b, bBytes := gen(1, "b.fastq")
	c, cBytes := gen(2, "c.fastq")
	if !bytes.Equal(aBytes, bBytes) || a.oracle != b.oracle {
		t.Error("seed 1 gave two different inputs")
	}
	if bytes.Equal(aBytes, cBytes) || a.oracle == c.oracle {
		t.Error("seeds 1 and 2 gave the same input")
	}
	if a.bases != int64(spec.numReads*spec.readLength) || a.bytes != int64(len(aBytes)) {
		t.Errorf("input size %d bases, %d bytes; want %d bases, %d bytes",
			a.bases, a.bytes, spec.numReads*spec.readLength, len(aBytes))
	}
	if len(a.setup) != 2 {
		t.Errorf("%d setup samples, want 2", len(a.setup))
	}
}

// TestTracerSelfTime checks that a span's self time excludes its children
// and that the self times add up to the root span's duration.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	start := time.Now()
	end := tr.begin("outer")
	inner := tr.begin("inner")
	time.Sleep(5 * time.Millisecond)
	inner()
	tr.leaf("store.read", time.Millisecond)
	end()
	elapsed := time.Since(start)
	if got := tr.self["store.read"]; got != time.Millisecond {
		t.Errorf("leaf self time %v, want 1ms", got)
	}
	if got := tr.self["inner"]; got < 5*time.Millisecond {
		t.Errorf("inner self time %v, want at least the 5ms it slept", got)
	}
	if total := tr.totalSelf(); total > elapsed || total < 5*time.Millisecond {
		t.Errorf("self times sum to %v; want the outer span's duration, at most %v", total, elapsed)
	}
}

// TestTracedBuildMatchesOracle runs the traced in-process build on a small
// input and checks its graph against the oracle and that it measures every
// per-layer metric but the overhead, which needs the CLI.
func TestTracedBuildMatchesOracle(t *testing.T) {
	dir := t.TempDir()
	spec := inputSpec{name: "t", genomeSize: 5000, readLength: 80, numReads: 2000, lambda: 1}
	in, err := prepareInput(spec, 7, filepath.Join(dir, "in.fastq"), 1)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("distinct-heavy")
	tr, err := traceBuild(context.Background(), w, "", in, dir)
	if err != nil {
		t.Fatal(err)
	}
	if tr.digest != in.oracle {
		t.Errorf("traced graph digest %s, oracle %s", tr.digest, in.oracle)
	}
	if tr.counts.Kmers != int64(spec.numReads*(spec.readLength-benchK+1)) || tr.counts.Inserts != tr.counts.Distinct {
		t.Errorf("traced counts %+v do not add up", tr.counts)
	}
	for _, d := range perLayerMetrics {
		if _, ok := tr.layer[d.name]; !ok && d.name != "trace.overhead_s" {
			t.Errorf("traced run did not measure %s", d.name)
		}
	}
}
