// Command e2ebench is the repository's end-to-end benchmark. It runs the
// real parahash CLI binary on a seeded synthetic workload, checks every
// output graph byte for byte against an oracle, and prints wall time,
// throughput, CPU time, measured peak RSS and set-up time. With -trace 1 it
// instead reports the per-layer split of a separate in-process run that
// times the calls into each layer's public functions.
//
// Build and run it from the repository root with
//
//	bash e2ebench/run.sh --workload dup-heavy --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"parahash/internal/obs"
)

// benchTimeout bounds a whole benchmark run, so a hung build or worker
// fails it well inside the three minutes a run may take.
const benchTimeout = 170 * time.Second

// setupRounds is how many times a run generates, writes and reads its
// input; setup_s is their median.
const setupRounds = 9

type metricDef struct {
	name, unit string
}

// endToEndMetrics are what a CLI user sees, measured with tracing off.
var endToEndMetrics = []metricDef{
	{"wall_s", "s"},
	{"mbp_per_s", "Mbp/s"},
	{"cpu_s", "s"},
	{"max_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayerMetrics come from the traced run. A _s metric is a layer's self
// time.
var perLayerMetrics = []metricDef{
	{"fastq.parse_s", "s"}, {"fastq.mb", "MiB"},
	{"msp.scan_s", "s"}, {"msp.superkmers", "count"}, {"msp.kmers", "count"},
	{"msp.encode_s", "s"}, {"msp.encoded_mb", "MiB"},
	{"store.write_s", "s"}, {"store.read_s", "s"}, {"store.written_mb", "MiB"}, {"store.read_mb", "MiB"},
	{"msp.decode_s", "s"}, {"msp.decoded_mb", "MiB"},
	{"hashtable.insert_s", "s"}, {"hashtable.inserts", "count"}, {"hashtable.updates", "count"},
	{"hashtable.probes_per_access", "probes/access"}, {"hashtable.lock_waits", "count"}, {"hashtable.table_mb", "MiB"},
	{"graph.collect_sort_s", "s"}, {"graph.merge_s", "s"}, {"graph.serialize_s", "s"},
	{"graph.vertices", "count"}, {"graph.out_mb", "MiB"},
	{"device.spill_s", "s"}, {"device.spill_merge_s", "s"}, {"device.spill_runs", "count"},
	{"device.spill_mb", "MiB"}, {"device.merge_passes", "count"},
	{"core.dist_prepare_s", "s"}, {"dist.run_s", "s"}, {"core.dist_finish_s", "s"},
	{"dist.lease_grants", "count"}, {"dist.reassignments", "count"}, {"dist.fenced_writes", "count"},
	{"runtime.gc_cpu_s", "s"}, {"runtime.heap_peak_mb", "MiB"},
	{"trace.unattributed_s", "s"}, {"trace.overhead_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
	bin      string
	work     string
	root     string
}

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), benchTimeout)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	cancel()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: "+workloadNames())
		seed    = fs.Int64("seed", 1, "seed of the generated input")
		seconds = fs.Int("seconds", 10, "how long the timed CLI runs (and, with -trace 1, the traced runs) measure")
		trace   = fs.Int("trace", 0, "1 reports the per-layer metrics of traced in-process runs instead of the end-to-end metrics")
		bin     = fs.String("parahash", ".bench_build/bin/parahash", "the parahash CLI binary to measure")
		work    = fs.String("work", ".bench_build/work", "scratch directory for inputs and outputs")
		root    = fs.String("root", ".", "repository root, for the provenance stamp")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "e2ebench: -seconds must be at least 1")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "e2ebench: -trace must be 0 or 1")
		return 2
	}
	if _, err := os.Stat(*bin); err != nil {
		fmt.Fprintln(stderr, "e2ebench: parahash binary:", err)
		return 1
	}
	opts := options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin, work: *work, root: *root}
	res, prov, err := bench(ctx, opts, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]provenance{"provenance": prov}); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// bench runs one workload: set-up and oracle, the guard run, the timed CLI
// runs and, when tracing, the traced runs.
func bench(ctx context.Context, o options, log io.Writer) (*result, provenance, error) {
	start := time.Now()
	prov := newProvenance(o.root, start)
	prov.Workload, prov.Seed, prov.Trace = o.workload.name, o.seed, o.trace
	bin, err := filepath.Abs(o.bin)
	if err != nil {
		return nil, prov, err
	}
	work, err := filepath.Abs(filepath.Join(o.work, strconv.Itoa(os.Getpid())))
	if err != nil {
		return nil, prov, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, prov, err
	}
	defer os.RemoveAll(work)

	w := o.workload
	in, err := prepareInput(w.input, o.seed, filepath.Join(work, w.input.name+".fastq"), setupRounds)
	if err != nil {
		return nil, prov, fmt.Errorf("preparing input: %w", err)
	}
	// The reads and the oracle graph are garbage now; return their memory
	// before the measured processes start.
	debug.FreeOSMemory()
	prov.InputMB, prov.InputMbp = mib(in.bytes), float64(in.bases)/1e6
	prov.SetupRounds = len(in.setup)

	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	fail := func(format string, a ...any) {
		res.Correct = false
		fmt.Fprintf(log, "e2ebench: %s: "+format+"\n", append([]any{w.name}, a...)...)
	}

	m, gs, err := guardRun(ctx, bin, w, in, work)
	res.Attempted++
	if gs.err != nil {
		res.Failed++
	}
	if err != nil {
		fail("guard run: %v", err)
	} else {
		desc, gerr := w.guard(m)
		prov.Property = desc
		if gerr != nil {
			fail("workload property does not hold: %v", gerr)
		}
	}

	out := filepath.Join(work, "out.dbg")
	ckDir := filepath.Join(work, "ck")
	argv := w.cliArgs(in.path, out, ckDir)
	prov.Argv = append([]string{bin}, argv...)
	var walls, cpus, rss []float64
	timed := time.Now()
	for prov.CLIRuns == 0 || time.Since(timed) < time.Duration(o.seconds)*time.Second {
		s := runCLI(ctx, bin, argv, out, ckDir, filepath.Join(work, "cli.log"), in.oracle)
		res.Attempted++
		prov.CLIRuns++
		if s.err != nil {
			res.Failed++
			fail("timed run %d: %v", prov.CLIRuns, s.err)
			continue
		}
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		rss = append(rss, float64(s.maxRSSKB)/1024)
	}
	if len(walls) == 0 {
		return nil, prov, fmt.Errorf("all %d timed CLI runs failed", prov.CLIRuns)
	}
	wall := median(walls)
	setup := make([]float64, len(in.setup))
	for i, d := range in.setup {
		setup[i] = d.Seconds()
	}
	fmt.Fprintf(log, "e2ebench: %s: %d CLI runs, wall_s median %.4f (IQR/median %.3f), cpu_s %.4f, max_rss_mb %.1f; setup rounds %.4f\n",
		w.name, len(walls), wall, relSpread(walls), median(cpus), median(rss), setup)

	if !o.trace {
		values := map[string]float64{
			"wall_s":     wall,
			"mbp_per_s":  float64(in.bases) / 1e6 / wall,
			"cpu_s":      median(cpus),
			"max_rss_mb": median(rss),
			"setup_s":    median(setup),
		}
		fill(res, endToEndMetrics, values)
	} else {
		values, runs, err := traceRuns(ctx, o, bin, in, work, m, wall, fail)
		if err != nil {
			return nil, prov, err
		}
		prov.TracedRuns = runs
		fill(res, perLayerMetrics, values)
	}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if v, ok := res.Metrics[d.name]; ok {
			fmt.Fprintf(log, "  %-28s %14.4f %s\n", d.name, v.Value, v.Unit)
		}
	}
	prov.End = time.Now().UTC().Format(time.RFC3339Nano)
	return res, prov, nil
}

// traceRuns repeats the traced in-process build for the run's seconds and
// returns the median of every per-layer metric. Each traced run must
// reproduce the oracle digest and the CLI's counts; otherwise the numbers
// are reported as invalid.
func traceRuns(ctx context.Context, o options, bin string, in *preparedInput, work string,
	cli *obs.BuildMetrics, untracedWall float64, fail func(string, ...any)) (map[string]float64, int, error) {
	samples := map[string][]float64{}
	start := time.Now()
	runs := 0
	for runs == 0 || time.Since(start) < time.Duration(o.seconds)*time.Second {
		tr, err := traceBuild(ctx, o.workload, bin, in, work)
		if err != nil {
			return nil, runs, fmt.Errorf("traced run: %w", err)
		}
		runs++
		if tr.digest != in.oracle {
			fail("traced run %d: graph digest %s differs from oracle %s; per-layer numbers are invalid", runs, tr.digest, in.oracle)
		}
		if cli == nil {
			fail("no CLI counts to check the traced run against; per-layer numbers are invalid")
		} else if want := cliCounts(cli); tr.counts != want {
			fail("traced run %d: counts %+v differ from the CLI's %+v; per-layer numbers are invalid", runs, tr.counts, want)
		}
		tr.layer["trace.overhead_s"] = tr.wall.Seconds() - untracedWall
		for k, v := range tr.layer {
			samples[k] = append(samples[k], v)
		}
	}
	values := make(map[string]float64, len(samples))
	for k, xs := range samples {
		values[k] = median(xs)
	}
	return values, runs, nil
}

// fill copies the defined metrics into the result; a missing value is a
// benchmark bug.
func fill(res *result, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("e2ebench: metric " + d.name + " was not measured")
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
}
