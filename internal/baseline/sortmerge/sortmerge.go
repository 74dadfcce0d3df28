// Package sortmerge implements the sort-merge De Bruijn subgraph
// construction strategy (§II-B): <kmer, edge> pairs are generated, sorted
// by k-mer, and merged so duplicates collapse with their edges appended.
// This is the strategy prior GPU assembly work adopts instead of hashing
// (Fig. 2), because it avoids concurrent table updates; the paper's
// concurrent hash table is benchmarked against it in the ablations.
package sortmerge

import (
	"fmt"

	"parahash/internal/costmodel"
	"parahash/internal/dna"
	"parahash/internal/graph"
	"parahash/internal/msp"
)

// pair is a <kmer, edge> record; counts start at one observation each.
type pair struct {
	canon dna.Kmer
	left  int8
	right int8
}

// Stats reports the sort-merge run's work and virtual time.
type Stats struct {
	// Pairs is the number of <kmer, edge> records sorted.
	Pairs int64
	// Seconds is the charged virtual time.
	Seconds float64
	// Distinct is the merged vertex count.
	Distinct int64
}

func pairCanon(p *pair) dna.Kmer { return p.canon }

// BuildSubgraph constructs one partition's subgraph by sort-merge from its
// superkmers. threads scales the charged sort time (parallel merge sort);
// the construction itself is sequential and exact.
func BuildSubgraph(sks []msp.Superkmer, k, threads int, cal costmodel.Calibration) (*graph.Subgraph, Stats, error) {
	if threads < 1 {
		return nil, Stats{}, fmt.Errorf("sortmerge: threads=%d must be positive", threads)
	}
	var pairs []pair
	for _, sk := range sks {
		msp.ForEachKmerEdge(sk, k, func(e msp.KmerEdge) {
			pairs = append(pairs, pair{canon: e.Canon, left: e.Left, right: e.Right})
		})
	}
	dna.SortByKmer(pairs, make([]pair, len(pairs)), 1, pairCanon)

	g := &graph.Subgraph{K: k}
	for i := 0; i < len(pairs); {
		v := graph.Vertex{Kmer: pairs[i].canon}
		j := i
		for ; j < len(pairs) && pairs[j].canon == v.Kmer; j++ {
			if pairs[j].left != msp.NoBase {
				v.Counts[pairs[j].left]++
			}
			if pairs[j].right != msp.NoBase {
				v.Counts[4+pairs[j].right]++
			}
		}
		g.Vertices = append(g.Vertices, v)
		i = j
	}

	st := Stats{Pairs: int64(len(pairs)), Distinct: int64(len(g.Vertices))}
	st.Seconds = Seconds(int64(len(pairs)), threads, cal)
	return g, st, nil
}

// Seconds charges a sort-merge pass over n pairs across threads.
func Seconds(n int64, threads int, cal costmodel.Calibration) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) / (cal.SortMergeKmersPerSec * float64(threads))
}
