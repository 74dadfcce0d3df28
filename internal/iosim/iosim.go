// Package iosim provides an in-memory partition store with exact byte
// accounting, standing in for the disk and memory-cached files of the
// paper's evaluation. Experiments charge IO time against the store's byte
// counters using costmodel bandwidths, so the Case 1 (memory-cached,
// IO ≪ compute) and Case 2 (disk, IO > compute) regimes of §IV-B reproduce
// deterministically on any host.
package iosim

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"parahash/internal/costmodel"
	"parahash/internal/store"
)

// ErrNotFound reports an absent file. It aliases store.ErrNotFound so code
// written against the PartitionStore interface classifies missing files
// identically for both stores: a missing file is deterministic, so the
// resilient pipeline treats it as non-retryable.
var ErrNotFound = store.ErrNotFound

// Store is a named collection of in-memory files with byte accounting,
// implementing store.PartitionStore. All methods are safe for concurrent
// use.
type Store struct {
	// Medium tags the store with the IO device it models.
	Medium costmodel.Medium

	mu           sync.Mutex
	files        map[string]*file
	bytesRead    int64
	bytesWritten int64
}

var _ store.PartitionStore = (*Store)(nil)

// NewStore creates an empty store modelling the given medium.
func NewStore(m costmodel.Medium) *Store {
	return &Store{Medium: m, files: make(map[string]*file)}
}

// chunkBytes is the size of the blocks a file is written in. A file never
// moves once written, and holds at most one partly filled block until
// Close trims it.
const chunkBytes = 64 << 10

// file is one published version of a file: immutable blocks, so any number
// of readers can share them without copying.
type file struct {
	chunks [][]byte
	size   int64
}

// errWriteAfterClose rejects a write to a published file.
var errWriteAfterClose = errors.New("iosim: write after Close")

// Create opens a new version of a named file for writing. Matching the
// atomic-publish contract of store.PartitionStore, the written bytes become
// observable — replacing any previous content — only when Close succeeds;
// until then Open/Size/List serve the prior version (or ErrNotFound).
// Create itself never fails for the in-memory store; the error return
// satisfies the interface, whose durable implementations can fail here.
func (s *Store) Create(name string) (io.WriteCloser, error) {
	return &countingWriter{store: s, f: &file{}, name: name}, nil
}

// Open returns a reader over a file's current content. Published content
// never changes, so the reader serves the store's own blocks without a
// copy; a later Create+Close of the name publishes new blocks and leaves
// open readers on the old ones.
func (s *Store) Open(name string) (io.Reader, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	s.bytesRead += f.size
	return &chunkReader{chunks: f.chunks}, nil
}

// chunkReader reads a file's blocks in order.
type chunkReader struct {
	chunks [][]byte
	cur    []byte
}

func (r *chunkReader) Read(p []byte) (int, error) {
	for len(r.cur) == 0 {
		if len(r.chunks) == 0 {
			return 0, io.EOF
		}
		r.cur, r.chunks = r.chunks[0], r.chunks[1:]
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	return n, nil
}

// Size returns a file's byte size, or an error if absent.
func (s *Store) Size(name string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return f.size, nil
}

// Remove deletes a file if present; removing an absent file is not an
// error.
func (s *Store) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.files, name)
	return nil
}

// List returns the stored file names, sorted.
func (s *Store) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.files))
	for name := range s.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// TotalBytes returns the sum of all file sizes.
func (s *Store) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, f := range s.files {
		total += f.size
	}
	return total
}

// BytesRead returns the cumulative bytes served to readers.
func (s *Store) BytesRead() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesRead
}

// BytesWritten returns the cumulative bytes accepted from writers.
func (s *Store) BytesWritten() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesWritten
}

// ReadSeconds charges the given byte volume as a read on this medium.
func (s *Store) ReadSeconds(cal costmodel.Calibration, bytes int64) float64 {
	return cal.ReadSeconds(s.Medium, bytes)
}

// WriteSeconds charges the given byte volume as a write on this medium.
func (s *Store) WriteSeconds(cal costmodel.Calibration, bytes int64) float64 {
	return cal.WriteSeconds(s.Medium, bytes)
}

type countingWriter struct {
	store  *Store
	f      *file
	name   string
	closed bool
}

// Write appends to the in-flight (unpublished) file under the store lock,
// filling fixed-size blocks. Writing after Close fails: the blocks are
// published and shared with readers.
func (w *countingWriter) Write(p []byte) (int, error) {
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("%w: %q", errWriteAfterClose, w.name)
	}
	n := len(p)
	for len(p) > 0 {
		last := len(w.f.chunks) - 1
		if last < 0 || len(w.f.chunks[last]) == chunkBytes {
			w.f.chunks = append(w.f.chunks, make([]byte, 0, chunkBytes))
			last++
		}
		c := w.f.chunks[last]
		k := min(len(p), chunkBytes-len(c))
		w.f.chunks[last] = append(c, p[:k]...)
		p = p[k:]
	}
	w.f.size += int64(n)
	w.store.bytesWritten += int64(n)
	return n, nil
}

// Close publishes the written bytes under the file's name, atomically
// replacing any previous content — the in-memory analogue of diskstore's
// fsync-and-rename. The partly filled last block is trimmed to its length
// first, so a small file does not pin a whole block. Closing twice is a
// no-op.
func (w *countingWriter) Close() error {
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if last := len(w.f.chunks) - 1; last >= 0 && len(w.f.chunks[last]) < chunkBytes {
		w.f.chunks[last] = append([]byte(nil), w.f.chunks[last]...)
	}
	w.store.files[w.name] = w.f
	return nil
}
