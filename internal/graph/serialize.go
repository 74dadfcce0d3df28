package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"parahash/internal/dna"
)

// Binary subgraph format (little-endian):
//
//	magic   "PHDG"        4 bytes
//	version 1             1 byte
//	k                     1 byte
//	count                 8 bytes
//	vertex records        count × (Hi 8 + Lo 8 + counts 8×4) = 48 bytes each
//
// This is the Step 2 output ParaHash writes partition by partition; the
// fixed record size makes the output pipeline's IO accounting exact.

var magic = [4]byte{'P', 'H', 'D', 'G'}

const formatVersion = 1

// headerBytes is the fixed size of the PHDG header.
const headerBytes = 4 + 1 + 1 + 8

// VertexRecordBytes is the serialized size of one vertex.
const VertexRecordBytes = 48

// ErrBadFormat reports an unreadable subgraph stream.
var ErrBadFormat = errors.New("graph: bad subgraph format")

// SerializedSize returns the exact byte size of a subgraph's serialization.
func SerializedSize(numVertices int) int64 {
	return headerBytes + int64(numVertices)*VertexRecordBytes
}

// putVertex encodes v into one vertex record.
func putVertex(buf *[VertexRecordBytes]byte, v *Vertex) {
	binary.LittleEndian.PutUint64(buf[0:], v.Kmer.Hi)
	binary.LittleEndian.PutUint64(buf[8:], v.Kmer.Lo)
	for j, c := range v.Counts {
		binary.LittleEndian.PutUint32(buf[16+4*j:], c)
	}
}

// getVertex decodes one vertex record into v.
func getVertex(buf *[VertexRecordBytes]byte, v *Vertex) {
	v.Kmer.Hi = binary.LittleEndian.Uint64(buf[0:])
	v.Kmer.Lo = binary.LittleEndian.Uint64(buf[8:])
	for j := range v.Counts {
		v.Counts[j] = binary.LittleEndian.Uint32(buf[16+4*j:])
	}
}

// recordWriter writes a PHDG header declaring count vertices, then one
// record per add.
type recordWriter struct {
	bw  *bufio.Writer
	buf [VertexRecordBytes]byte
}

func newRecordWriter(w io.Writer, k int, count int64) (*recordWriter, error) {
	rw := &recordWriter{bw: bufio.NewWriterSize(w, 1<<15)}
	var head [headerBytes]byte
	copy(head[:4], magic[:])
	head[4] = formatVersion
	head[5] = byte(k)
	binary.LittleEndian.PutUint64(head[6:], uint64(count))
	_, err := rw.bw.Write(head[:])
	return rw, err
}

func (rw *recordWriter) add(v *Vertex) error {
	putVertex(&rw.buf, v)
	_, err := rw.bw.Write(rw.buf[:])
	return err
}

// Write serialises the subgraph.
func (g *Subgraph) Write(w io.Writer) error {
	_, err := g.WriteFiltered(w, 0)
	return err
}

// WriteFiltered serialises the vertices whose multiplicity is at least min
// (every vertex when min <= 1), leaving g unchanged, and returns how many
// it wrote. The bytes equal those of Write after FilterByMultiplicity.
func (g *Subgraph) WriteFiltered(w io.Writer, min int) (int64, error) {
	count := int64(len(g.Vertices))
	if min > 1 {
		count = 0
		for i := range g.Vertices {
			if g.Vertices[i].Multiplicity() >= min {
				count++
			}
		}
	}
	rw, err := newRecordWriter(w, g.K, count)
	if err != nil {
		return 0, err
	}
	for i := range g.Vertices {
		if v := &g.Vertices[i]; min <= 1 || v.Multiplicity() >= min {
			if err := rw.add(v); err != nil {
				return 0, err
			}
		}
	}
	return count, rw.bw.Flush()
}

// readHeader parses a PHDG header, returning the k-mer length and the
// declared vertex count.
func readHeader(r io.Reader) (int, uint64, error) {
	var head [headerBytes]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, 0, fmt.Errorf("%w: header: %v", ErrBadFormat, err)
	}
	if [4]byte(head[:4]) != magic {
		return 0, 0, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	if head[4] != formatVersion {
		return 0, 0, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, head[4])
	}
	count := binary.LittleEndian.Uint64(head[6:14])
	if count > 1<<40 {
		return 0, 0, fmt.Errorf("%w: implausible vertex count %d", ErrBadFormat, count)
	}
	return int(head[5]), count, nil
}

// ReadSubgraph parses a serialised subgraph. The vertex slice grows as
// records arrive, so a header declaring more vertices than the stream
// holds fails on truncation instead of allocating its claim up front.
func ReadSubgraph(r io.Reader) (*Subgraph, error) {
	br := bufio.NewReaderSize(r, 1<<15)
	k, count, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	g := &Subgraph{K: k, Vertices: make([]Vertex, 0, min(count, 1<<20))}
	var buf [VertexRecordBytes]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("%w: vertex %d: %v", ErrBadFormat, i, err)
		}
		var v Vertex
		getVertex(&buf, &v)
		g.Vertices = append(g.Vertices, v)
	}
	return g, nil
}

// SubgraphReader streams a serialised subgraph one vertex at a time,
// holding one read buffer and never the graph. Unlike ReadSubgraph it
// checks what a streaming merge relies on: a k-mer length in 1..dna.MaxK,
// exactly the declared number of records (no truncation, no trailing
// bytes) and strictly ascending k-mers. Each violation fails with
// ErrBadFormat.
type SubgraphReader struct {
	br    *bufio.Reader
	k     int
	count uint64
	read  uint64
	last  dna.Kmer
	buf   [VertexRecordBytes]byte
}

// NewSubgraphReader parses the header of a serialised subgraph.
func NewSubgraphReader(r io.Reader) (*SubgraphReader, error) {
	sr := &SubgraphReader{br: bufio.NewReaderSize(r, 1<<15)}
	k, count, err := readHeader(sr.br)
	if err != nil {
		return nil, err
	}
	if k < 1 || k > dna.MaxK {
		return nil, fmt.Errorf("%w: k=%d outside 1..%d", ErrBadFormat, k, dna.MaxK)
	}
	sr.k, sr.count = k, count
	return sr, nil
}

// K returns the subgraph's k-mer length.
func (sr *SubgraphReader) K() int { return sr.k }

// Count returns the header's vertex count.
func (sr *SubgraphReader) Count() int64 { return int64(sr.count) }

// Next stores the next vertex in *v and reports true, or reports false
// once all Count vertices have been read and the stream is confirmed to
// end there.
func (sr *SubgraphReader) Next(v *Vertex) (bool, error) {
	if sr.read == sr.count {
		switch _, err := sr.br.ReadByte(); err {
		case io.EOF:
			return false, nil
		case nil:
			return false, fmt.Errorf("%w: data after the %d declared vertices", ErrBadFormat, sr.count)
		default:
			return false, fmt.Errorf("%w: after vertex %d: %v", ErrBadFormat, sr.count, err)
		}
	}
	if _, err := io.ReadFull(sr.br, sr.buf[:]); err != nil {
		return false, fmt.Errorf("%w: vertex %d of %d: %v", ErrBadFormat, sr.read, sr.count, err)
	}
	getVertex(&sr.buf, v)
	if sr.read > 0 && !sr.last.Less(v.Kmer) {
		return false, fmt.Errorf("%w: vertex %d out of order", ErrBadFormat, sr.read)
	}
	sr.last = v.Kmer
	sr.read++
	return true, nil
}

// WriteMerged serialises the k-way merge of the sorted subgraph streams
// that open returns, keeping the vertices whose multiplicity is at least
// minMultiplicity (all of them when it is 0 or 1), and returns how many it
// wrote. The bytes equal those of Merge then WriteFiltered, but memory
// holds one head vertex and one read buffer per stream, never a graph.
//
// The header declares the sum of the stream headers' counts: the streams
// must share no k-mer, as MSP partitions do not. A filter needs the
// surviving count before the header, so a first merge pass counts it and
// open is called twice. Every stream must carry k-mer length k; a stream
// that breaks this or SubgraphReader's checks, or streams that do share
// k-mers, fail with ErrBadFormat.
func WriteMerged(w io.Writer, k, minMultiplicity int, open func() ([]*SubgraphReader, error)) (int64, error) {
	start := func() ([]*SubgraphReader, int64, error) {
		srcs, err := open()
		if err != nil {
			return nil, 0, err
		}
		var declared int64
		for i, sr := range srcs {
			if sr.K() != k {
				return nil, 0, fmt.Errorf("%w: stream %d has k=%d, want %d", ErrBadFormat, i, sr.K(), k)
			}
			declared += sr.Count()
		}
		return srcs, declared, nil
	}
	// merge runs one pass, handing emit the vertices that pass the filter.
	merge := func(srcs []*SubgraphReader, declared int64, emit func(*Vertex) error) error {
		var merged int64
		err := kwayMerge(len(srcs), func(i int, v *Vertex) (bool, error) {
			return srcs[i].Next(v)
		}, func(v *Vertex) error {
			merged++
			if minMultiplicity > 1 && v.Multiplicity() < minMultiplicity {
				return nil
			}
			return emit(v)
		})
		if err == nil && merged != declared {
			err = fmt.Errorf("%w: merged %d vertices, the stream headers declare %d", ErrBadFormat, merged, declared)
		}
		return err
	}

	srcs, declared, err := start()
	if err != nil {
		return 0, err
	}
	count := declared
	if minMultiplicity > 1 {
		count = 0
		if err := merge(srcs, declared, func(*Vertex) error { count++; return nil }); err != nil {
			return 0, err
		}
		if srcs, declared, err = start(); err != nil {
			return 0, err
		}
	}
	rw, err := newRecordWriter(w, k, count)
	if err != nil {
		return 0, err
	}
	var written int64
	if err := merge(srcs, declared, func(v *Vertex) error { written++; return rw.add(v) }); err != nil {
		return 0, err
	}
	if written != count {
		return 0, fmt.Errorf("%w: wrote %d vertices, counted %d", ErrBadFormat, written, count)
	}
	return written, rw.bw.Flush()
}
