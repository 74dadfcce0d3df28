package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// serialize returns g's PHDG bytes.
func serialize(t testing.TB, g *Subgraph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openAll returns an open function serving a fresh SubgraphReader over
// each file on every call.
func openAll(files [][]byte) func() ([]*SubgraphReader, error) {
	return func() ([]*SubgraphReader, error) {
		srcs := make([]*SubgraphReader, len(files))
		for i, f := range files {
			sr, err := NewSubgraphReader(bytes.NewReader(f))
			if err != nil {
				return nil, err
			}
			srcs[i] = sr
		}
		return srcs, nil
	}
}

// TestWriteMergedMatchesMergeWrite pins the streaming merge-writer to the
// in-memory path it replaces: Merge, FilterByMultiplicity, Write.
func TestWriteMergedMatchesMergeWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const k = 27
	vs := randomVertices(22, 20000, k)
	cases := map[string][]*Subgraph{
		"no streams":     nil,
		"empty streams":  {{K: k}, {K: k}},
		"single":         splitVertices(rng, vs, k, 1, true),
		"64 partitions":  splitVertices(rng, vs, k, 64, true),
		"some empty":     append(splitVertices(rng, vs[:300], k, 3, true), &Subgraph{K: k}),
		"tiny partition": splitVertices(rng, vs[:1], k, 1, true),
	}
	for name, subs := range cases {
		files := make([][]byte, len(subs))
		for i, s := range subs {
			files[i] = serialize(t, s)
		}
		for _, min := range []int{0, 1, 20, 30, 1 << 20} {
			want, err := Merge(k, cloneSubgraphs(subs)...)
			if err != nil {
				t.Fatal(err)
			}
			if min > 1 {
				want.FilterByMultiplicity(min)
			}
			var got bytes.Buffer
			n, err := WriteMerged(&got, k, min, openAll(files))
			if err != nil {
				t.Fatalf("%s, min %d: %v", name, min, err)
			}
			if n != int64(want.NumVertices()) {
				t.Errorf("%s, min %d: wrote %d vertices, want %d", name, min, n, want.NumVertices())
			}
			if !bytes.Equal(got.Bytes(), serialize(t, want)) {
				t.Errorf("%s, min %d: output differs from Merge+Write", name, min)
			}
		}
	}
}

// TestWriteFilteredMatchesFilterWrite checks the in-memory filtered writer
// against FilterByMultiplicity then Write, and that it leaves g unchanged.
func TestWriteFilteredMatchesFilterWrite(t *testing.T) {
	g := &Subgraph{K: 27, Vertices: randomVertices(23, 3000, 27)}
	g.Sort()
	before := serialize(t, g)
	for _, min := range []int{0, 25, 1 << 20} {
		want := cloneSubgraphs([]*Subgraph{g})[0]
		want.FilterByMultiplicity(min)
		var got bytes.Buffer
		n, err := g.WriteFiltered(&got, min)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(want.NumVertices()) || !bytes.Equal(got.Bytes(), serialize(t, want)) {
			t.Errorf("min %d: WriteFiltered differs from FilterByMultiplicity+Write", min)
		}
	}
	if !bytes.Equal(serialize(t, g), before) {
		t.Error("WriteFiltered modified the graph")
	}
}

func TestWriteMergedErrors(t *testing.T) {
	const k = 27
	rng := rand.New(rand.NewSource(24))
	subs := splitVertices(rng, randomVertices(25, 400, k), k, 2, true)
	good := [][]byte{serialize(t, subs[0]), serialize(t, subs[1])}
	with := func(i int, f []byte) [][]byte {
		files := [][]byte{good[0], good[1]}
		files[i] = f
		return files
	}
	patched := func(f []byte, at int, b ...byte) []byte {
		f = append([]byte(nil), f...)
		copy(f[at:], b)
		return f
	}
	count := func(f []byte, n uint64) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], n)
		return patched(f, 6, b[:]...)
	}
	n0 := uint64(subs[0].NumVertices())
	// Swap the first two records of stream 0.
	swapped := append([]byte(nil), good[0]...)
	r0 := swapped[headerBytes : headerBytes+VertexRecordBytes]
	r1 := append([]byte(nil), swapped[headerBytes+VertexRecordBytes:headerBytes+2*VertexRecordBytes]...)
	copy(swapped[headerBytes+VertexRecordBytes:], r0)
	copy(swapped[headerBytes:], r1)
	// Stream 1 repeating a k-mer of stream 0: each stream is valid, the
	// merge is one vertex short of the headers.
	shared := cloneSubgraphs(subs)
	shared[1].Vertices = append(shared[1].Vertices, subs[0].Vertices[0])
	shared[1].Sort()

	cases := map[string][][]byte{
		"truncated header":   with(0, good[0][:10]),
		"truncated record":   with(1, good[1][:len(good[1])-5]),
		"bad magic":          with(0, patched(good[0], 0, 'X')),
		"bad version":        with(0, patched(good[0], 4, 2)),
		"k out of range":     with(1, patched(good[1], 5, 64)),
		"k mismatch":         with(1, patched(good[1], 5, k-2)),
		"count too high":     with(0, count(good[0], n0+1)),
		"count too low":      with(0, count(good[0], n0-1)),
		"out of order":       with(0, swapped),
		"streams share kmer": {serialize(t, shared[0]), serialize(t, shared[1])},
	}
	for name, files := range cases {
		for _, min := range []int{0, 20} {
			_, err := WriteMerged(&bytes.Buffer{}, k, min, openAll(files))
			if !errors.Is(err, ErrBadFormat) {
				t.Errorf("%s, min %d: err = %v, want ErrBadFormat", name, min, err)
			}
		}
	}
}

// FuzzWriteMerged feeds arbitrary bytes as one stream, merged under the k
// its header claims. A stream WriteMerged accepts must be exactly what
// ReadSubgraph parses, strictly ascending, and written back as
// WriteFiltered would; anything else must fail ErrBadFormat.
func FuzzWriteMerged(f *testing.F) {
	g := &Subgraph{K: 5, Vertices: randomVertices(26, 6, 5)}
	g.Sort()
	valid := serialize(f, g)
	f.Add(valid, uint8(0))
	f.Add(valid, uint8(12))
	f.Add(valid[:20], uint8(0))
	f.Add(serialize(f, &Subgraph{K: 5}), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, min uint8) {
		var got bytes.Buffer
		n, err := WriteMerged(&got, headerK(data), int(min), openAll([][]byte{data}))
		parsed, perr := ReadSubgraph(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("err = %v, want ErrBadFormat", err)
			}
			if perr == nil && parsed.K >= 1 && parsed.K <= 63 &&
				int64(len(data)) == SerializedSize(parsed.NumVertices()) && strictlyAscending(parsed) {
				t.Fatalf("rejected a well-formed stream: %v", err)
			}
			return
		}
		if perr != nil {
			t.Fatalf("accepted a stream ReadSubgraph rejects: %v", perr)
		}
		if !strictlyAscending(parsed) {
			t.Fatal("accepted an unsorted stream")
		}
		var want bytes.Buffer
		wn, _ := parsed.WriteFiltered(&want, int(min))
		if n != wn || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatal("output differs from WriteFiltered of the parsed stream")
		}
	})
}

// headerK returns the k byte of a PHDG header, or 0 for a short input.
func headerK(data []byte) int {
	if len(data) < 6 {
		return 0
	}
	return int(data[5])
}

func strictlyAscending(g *Subgraph) bool {
	for i := 1; i < len(g.Vertices); i++ {
		if !g.Vertices[i-1].Kmer.Less(g.Vertices[i].Kmer) {
			return false
		}
	}
	return true
}
