package main

import (
	"io"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"parahash/internal/store"
)

// tracer records spans around the calls the traced run makes into each
// layer and accumulates every layer's self time: a span's duration minus
// the time its child spans cover. Spans opened with begin nest strictly
// (the traced run drives them from one goroutine); leaf spans added with
// leaf may come from any goroutine and count as children of whichever
// span is open at the time.
type tracer struct {
	mu   sync.Mutex
	open []*span
	self map[string]time.Duration
}

type span struct {
	name  string
	start time.Time
	child time.Duration
}

func newTracer() *tracer { return &tracer{self: make(map[string]time.Duration)} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) func() {
	s := &span{name: name, start: time.Now()}
	t.mu.Lock()
	t.open = append(t.open, s)
	t.mu.Unlock()
	return func() {
		d := time.Since(s.start)
		t.mu.Lock()
		defer t.mu.Unlock()
		n := len(t.open)
		if t.open[n-1] != s {
			panic("tracer: span " + name + " closed out of order")
		}
		t.open = t.open[:n-1]
		t.self[name] += d - s.child
		if n > 1 {
			t.open[n-2].child += d
		}
	}
}

// leaf records a completed span with no children.
func (t *tracer) leaf(name string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.self[name] += d
	if n := len(t.open); n > 0 {
		t.open[n-1].child += d
	}
}

// selfSeconds returns the accumulated self time of a layer.
func (t *tracer) selfSeconds(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.self[name].Seconds()
}

// totalSelf sums the self time of every layer.
func (t *tracer) totalSelf() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, d := range t.self {
		sum += d
	}
	return sum
}

// timedStore decorates a partition store: every call that moves bytes is a
// store.write or store.read leaf span, and the bytes are counted.
type timedStore struct {
	store.PartitionStore
	tr      *tracer
	written atomic.Int64
	read    atomic.Int64
}

func (s *timedStore) Create(name string) (io.WriteCloser, error) {
	start := time.Now()
	w, err := s.PartitionStore.Create(name)
	s.tr.leaf("store.write", time.Since(start))
	if err != nil {
		return nil, err
	}
	return &timedWriter{w: w, s: s}, nil
}

func (s *timedStore) Open(name string) (io.Reader, error) {
	start := time.Now()
	r, err := s.PartitionStore.Open(name)
	s.tr.leaf("store.read", time.Since(start))
	if err != nil {
		return nil, err
	}
	return &timedReader{r: r, s: s}, nil
}

func (s *timedStore) Remove(name string) error {
	start := time.Now()
	err := s.PartitionStore.Remove(name)
	s.tr.leaf("store.write", time.Since(start))
	return err
}

type timedWriter struct {
	w io.WriteCloser
	s *timedStore
}

func (w *timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := w.w.Write(p)
	w.s.tr.leaf("store.write", time.Since(start))
	w.s.written.Add(int64(n))
	return n, err
}

func (w *timedWriter) Close() error {
	start := time.Now()
	err := w.w.Close()
	w.s.tr.leaf("store.write", time.Since(start))
	return err
}

type timedReader struct {
	r io.Reader
	s *timedStore
}

func (r *timedReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := r.r.Read(p)
	r.s.tr.leaf("store.read", time.Since(start))
	r.s.read.Add(int64(n))
	return n, err
}

// runtimeSampler tracks the Go runtime's GC CPU time and the peak live
// heap of this process while the traced run executes.
type runtimeSampler struct {
	stop     chan struct{}
	done     chan struct{}
	gcStart  float64
	peakHeap atomic.Uint64
}

const (
	gcCPUMetric     = "/cpu/classes/gc/total:cpu-seconds"
	heapObjsMetric  = "/memory/classes/heap/objects:bytes"
	heapSampleEvery = 5 * time.Millisecond
)

func startRuntimeSampler() *runtimeSampler {
	r := &runtimeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	r.gcStart = readRuntime()[0].Value.Float64()
	r.sample()
	go func() {
		defer close(r.done)
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				r.sample()
			}
		}
	}()
	return r
}

func readRuntime() []metrics.Sample {
	s := []metrics.Sample{{Name: gcCPUMetric}, {Name: heapObjsMetric}}
	metrics.Read(s)
	return s
}

func (r *runtimeSampler) sample() {
	h := readRuntime()[1].Value.Uint64()
	for {
		old := r.peakHeap.Load()
		if h <= old || r.peakHeap.CompareAndSwap(old, h) {
			return
		}
	}
}

// finish stops sampling and returns the GC CPU seconds spent since the
// start and the peak heap in bytes.
func (r *runtimeSampler) finish() (gcCPU float64, peakHeap uint64) {
	close(r.stop)
	<-r.done
	r.sample()
	return readRuntime()[0].Value.Float64() - r.gcStart, r.peakHeap.Load()
}
