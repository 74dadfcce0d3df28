package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"parahash/internal/device"
	"parahash/internal/fastq"
)

// streamOf renders reads as a FASTQ stream.
func streamOf(t *testing.T, reads []fastq.Read) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := fastq.WriteFASTQ(&buf, reads); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// failFirstStep1 fails the first Step 1 call made on any processor
// sharing its flag, then works.
type failFirstStep1 struct {
	device.Processor
	failed *atomic.Bool
}

var errStep1Flake = errors.New("step 1 kernel flake")

func (p failFirstStep1) Step1(ctx context.Context, reads []fastq.Read, k, pl int) (device.Step1Output, error) {
	if p.failed.CompareAndSwap(false, true) {
		return device.Step1Output{}, errStep1Flake
	}
	return p.Processor.Step1(ctx, reads, k, pl)
}

func TestBuildFromReaderRetriesFlakyProcessor(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	want, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var failed atomic.Bool
	cfg.ProcWrap = func(procs []device.Processor) []device.Processor {
		for i := range procs {
			procs[i] = failFirstStep1{procs[i], &failed}
		}
		return procs
	}
	got, err := BuildFromReader(streamOf(t, reads), cfg, 20_000)
	if err != nil {
		t.Fatalf("streamed build did not recover from a Step 1 flake: %v", err)
	}
	if got.Stats.Step1.Retries != 1 {
		t.Errorf("Step1.Retries = %d, want 1", got.Stats.Step1.Retries)
	}
	if !bytes.Equal(serializeGraph(t, got.Graph), serializeGraph(t, want.Graph)) {
		t.Fatal("recovered streamed graph is not byte-identical to Build's")
	}
}

func TestBuildFromReaderMalformedRecordNotRetried(t *testing.T) {
	// A bad record past the first chunk fails the build with the parse
	// error on its first attempt: retrying a stream read would silently
	// skip records.
	reads := tinyReads(t)
	buf := streamOf(t, reads[:len(reads)/2])
	buf.WriteString("not a fastq header\n")
	if err := fastq.WriteFASTQ(buf, reads[len(reads)/2:]); err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Resilience.MaxAttempts = 3
	_, err := BuildFromReader(buf, cfg, 20_000)
	if !errors.Is(err, fastq.ErrBadRecord) {
		t.Fatalf("err = %v, want the parse error", err)
	}
	if !strings.Contains(err.Error(), "(attempt 1/3)") {
		t.Errorf("malformed record was retried: %v", err)
	}
}

func TestBuildFromReaderCoprocessing(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	cfg.NumGPUs = 1
	want, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildFromReader(streamOf(t, reads), cfg, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serializeGraph(t, got.Graph), serializeGraph(t, want.Graph)) {
		t.Fatal("co-processed streamed graph is not byte-identical to Build's")
	}
	s := got.Stats.Step1
	if len(s.MeasuredProcessorParts) != 2 {
		t.Fatalf("Step 1 ran on %d processors, want CPU+GPU", len(s.MeasuredProcessorParts))
	}
	if n := s.MeasuredProcessorParts[0] + s.MeasuredProcessorParts[1]; n != s.Partitions || n < 2 {
		t.Errorf("processors produced %d of %d chunks", n, s.Partitions)
	}
}
