// Package graph defines the De Bruijn graph structures ParaHash constructs:
// vertices are canonical k-mers, and each vertex carries eight edge
// multiplicity counters — the <vertex, list of edges> adjacency form of
// Definition 3 in the paper, bi-directed over canonical k-mers.
//
// The package also provides subgraph merging, abundance-based error
// filtering, unitig compaction for downstream assembly, and a naive
// single-threaded reference constructor used as a correctness oracle by the
// test suites of every other package.
package graph

import (
	"fmt"
	"slices"
	"sort"

	"parahash/internal/dna"
)

// Vertex is one De Bruijn graph vertex with its adjacency counters.
type Vertex struct {
	// Kmer is the canonical k-mer.
	Kmer dna.Kmer
	// Counts holds edge multiplicities: Counts[0..3] count neighbours
	// preceding the canonical orientation (by base), Counts[4..7] count
	// neighbours following it.
	Counts [8]uint32
}

// Multiplicity is the total number of adjacency observations at the vertex.
func (v Vertex) Multiplicity() int {
	m := 0
	for _, c := range v.Counts {
		m += int(c)
	}
	return m
}

// Degree is the number of distinct (side, base) edges.
func (v Vertex) Degree() int {
	d := 0
	for _, c := range v.Counts {
		if c > 0 {
			d++
		}
	}
	return d
}

// Side selects one end of a canonical vertex.
type Side int

// Vertex sides: Left precedes the canonical orientation, Right follows it.
const (
	Left  Side = 0
	Right Side = 1
)

// Count returns the edge multiplicity for a side and base.
func (v Vertex) Count(s Side, b dna.Base) uint32 {
	return v.Counts[int(s)*4+int(b)]
}

// Neighbor computes the vertex adjacent to km across the (side, base) edge:
// extending the canonical k-mer with b on the given side and dropping the
// opposite end, then canonicalising. The edge weight is Count(s, b).
func Neighbor(km dna.Kmer, k int, s Side, b dna.Base) dna.Kmer {
	var next dna.Kmer
	if s == Right {
		next = km.AppendBase(b, k)
	} else {
		next = km.PrependBase(b, k)
	}
	canon, _ := next.Canonical(k)
	return canon
}

// Subgraph is the De Bruijn subgraph constructed from one superkmer
// partition: a set of vertices sorted by k-mer for deterministic output.
type Subgraph struct {
	// K is the k-mer length.
	K int
	// Vertices is sorted ascending by canonical k-mer.
	Vertices []Vertex
}

// Sort orders the vertices canonically; construction emits hash order.
func (g *Subgraph) Sort() {
	sort.Slice(g.Vertices, func(i, j int) bool {
		return g.Vertices[i].Kmer.Less(g.Vertices[j].Kmer)
	})
}

// Lookup finds a vertex by canonical k-mer in a sorted subgraph.
func (g *Subgraph) Lookup(km dna.Kmer) (Vertex, bool) {
	i := sort.Search(len(g.Vertices), func(i int) bool {
		return !g.Vertices[i].Kmer.Less(km)
	})
	if i < len(g.Vertices) && g.Vertices[i].Kmer == km {
		return g.Vertices[i], true
	}
	return Vertex{}, false
}

// NumVertices returns the vertex count.
func (g *Subgraph) NumVertices() int { return len(g.Vertices) }

// NumEdges returns the number of distinct directed (vertex, side, base)
// edges; each undirected adjacency appears once per endpoint.
func (g *Subgraph) NumEdges() int {
	n := 0
	for _, v := range g.Vertices {
		n += v.Degree()
	}
	return n
}

// TotalMultiplicity sums edge observations over all vertices.
func (g *Subgraph) TotalMultiplicity() int {
	n := 0
	for _, v := range g.Vertices {
		n += v.Multiplicity()
	}
	return n
}

// FilterByMultiplicity removes vertices whose total adjacency observations
// fall below min — the paper's post-construction filtering of erroneous
// vertices, which "can only be filtered by the number of their occurrences
// after the graph is constructed" (§III-C1). Returns the number removed.
func (g *Subgraph) FilterByMultiplicity(min int) int {
	kept := g.Vertices[:0]
	removed := 0
	for _, v := range g.Vertices {
		if v.Multiplicity() >= min {
			kept = append(kept, v)
		} else {
			removed++
		}
	}
	g.Vertices = kept
	return removed
}

// Merge combines subgraphs into one sorted graph with a k-way heap merge,
// summing the counters of vertices that appear in several subgraphs. With
// MSP partitioning, vertex sets are disjoint across partitions and every
// Step 2 subgraph is already sorted, so the merge only interleaves them;
// the summation path exists for non-partitioned construction and for
// tests. An unsorted input is sorted on a copy: the inputs are never
// modified.
func Merge(k int, subs ...*Subgraph) (*Subgraph, error) {
	total := 0
	runs := make([][]Vertex, len(subs))
	for i, s := range subs {
		if s.K != k {
			return nil, fmt.Errorf("graph: cannot merge K=%d subgraph into K=%d graph", s.K, k)
		}
		total += len(s.Vertices)
		runs[i] = s.Vertices
		if !slices.IsSortedFunc(runs[i], func(a, b Vertex) int { return a.Kmer.Compare(b.Kmer) }) {
			runs[i] = append([]Vertex(nil), runs[i]...)
			(&Subgraph{Vertices: runs[i]}).SortParallel(1)
		}
	}
	out := make([]Vertex, 0, total)
	err := kwayMerge(len(runs), func(i int, v *Vertex) (bool, error) {
		if len(runs[i]) == 0 {
			return false, nil
		}
		*v, runs[i] = runs[i][0], runs[i][1:]
		return true, nil
	}, func(v *Vertex) error {
		out = append(out, *v)
		return nil
	})
	return &Subgraph{K: k, Vertices: out}, err
}

// kwayMerge merges n sources into ascending k-mer order. Each source
// yields vertices in non-decreasing k-mer order: next(src, v) stores the
// source's next vertex in *v, or reports false once it is exhausted. A
// binary min-heap holds one head vertex per source. Counters of equal
// k-mers, within a source or across sources, are summed, and each merged
// vertex is handed to emit.
func kwayMerge(n int, next func(src int, v *Vertex) (bool, error), emit func(*Vertex) error) error {
	type head struct {
		v   Vertex
		src int
	}
	h := make([]head, 0, n)
	for i := 0; i < n; i++ {
		h = append(h, head{src: i})
		ok, err := next(i, &h[len(h)-1].v)
		if err != nil {
			return err
		}
		if !ok {
			h = h[:len(h)-1]
		}
	}
	down := func(i int) {
		for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
			if c+1 < len(h) && h[c+1].v.Kmer.Less(h[c].v.Kmer) {
				c++
			}
			if !h[c].v.Kmer.Less(h[i].v.Kmer) {
				return
			}
			h[i], h[c] = h[c], h[i]
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	var acc Vertex
	pending := false
	for ; len(h) > 0; pending = true {
		top := &h[0]
		if pending && acc.Kmer == top.v.Kmer {
			for j := range acc.Counts {
				acc.Counts[j] += top.v.Counts[j]
			}
		} else {
			if pending {
				if err := emit(&acc); err != nil {
					return err
				}
			}
			acc = top.v
		}
		ok, err := next(top.src, &top.v)
		if err != nil {
			return err
		}
		if !ok {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	if pending {
		return emit(&acc)
	}
	return nil
}

// Stats summarises a graph in the terms of Table I of the paper.
type Stats struct {
	// DistinctVertices is the graph size.
	DistinctVertices int
	// Edges is the number of distinct (vertex, side, base) edges.
	Edges int
	// TotalMultiplicity is the number of adjacency observations.
	TotalMultiplicity int
}

// ComputeStats gathers Stats for the subgraph.
func (g *Subgraph) ComputeStats() Stats {
	return Stats{
		DistinctVertices:  g.NumVertices(),
		Edges:             g.NumEdges(),
		TotalMultiplicity: g.TotalMultiplicity(),
	}
}

// Equal reports whether two subgraphs have identical sorted vertex sets and
// counters. Both must be sorted.
func (g *Subgraph) Equal(other *Subgraph) bool {
	if g.K != other.K || len(g.Vertices) != len(other.Vertices) {
		return false
	}
	for i := range g.Vertices {
		if g.Vertices[i] != other.Vertices[i] {
			return false
		}
	}
	return true
}
