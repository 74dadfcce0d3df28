package dna

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
)

// rec is a sort element with a payload, so tests can tell equal keys apart.
type rec struct {
	km  Kmer
	tag uint32
}

func recKmer(r *rec) Kmer { return r.km }

// sortOracle is the comparison sort SortByKmer must agree with.
func sortOracle(a []rec) []rec {
	out := append([]rec(nil), a...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].km.Less(out[j].km) })
	return out
}

// randomKmer draws a uniformly random k-mer value (bases over the low 2k
// bits).
func randomKmer(rng *rand.Rand, k int) Kmer {
	km := Kmer{Hi: rng.Uint64(), Lo: rng.Uint64()}
	if k <= 32 {
		km.Hi = 0
		if k < 32 {
			km.Lo &= 1<<(2*k) - 1
		}
	} else {
		km.Hi &= 1<<(2*(k-32)) - 1
	}
	return km
}

// checkSorted asserts got is SortByKmer-sorted in: ascending and stable,
// which with tag-distinguished inputs makes it exactly the oracle's order.
func checkSorted(t testing.TB, in, got []rec, what string) {
	t.Helper()
	want := sortOracle(in)
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

func TestSortByKmerMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{5, 27, 31, 32, 33, 63} {
		for _, n := range []int{0, 1, 2, sortParallelMin - 1, sortParallelMin, 3*sortParallelMin + 17} {
			for _, workers := range []int{1, 2, 3, 8, 64} {
				in := make([]rec, n)
				for i := range in {
					in[i] = rec{km: randomKmer(rng, k), tag: uint32(i)}
				}
				got := append([]rec(nil), in...)
				// A scratch buffer may be longer than the input.
				SortByKmer(got, make([]rec, n+workers%2), workers, recKmer)
				checkSorted(t, in, got, "random keys")
			}
		}
	}
}

func TestSortByKmerDegenerateKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 3*sortParallelMin + 17
	cases := map[string]func(i int) Kmer{
		"all equal":         func(int) Kmer { return Kmer{Hi: 0x5, Lo: 0xdeadbeef} },
		"all zero":          func(int) Kmer { return Kmer{} },
		"differ only in Hi": func(int) Kmer { return Kmer{Hi: uint64(rng.Intn(1 << 20)), Lo: 42} },
		"Hi top digit only": func(int) Kmer { return Kmer{Hi: uint64(rng.Intn(4)) << 62, Lo: 7} },
		"Lo top bits only":  func(int) Kmer { return Kmer{Lo: uint64(rng.Intn(512)) << 55} },
		"few distinct":      func(int) Kmer { return Kmer{Hi: uint64(rng.Intn(3)), Lo: uint64(rng.Intn(5))} },
		"descending":        func(i int) Kmer { return Kmer{Hi: uint64(n - i), Lo: ^uint64(i)} },
	}
	for name, gen := range cases {
		for _, workers := range []int{1, 2, 3, 8, 64} {
			for _, m := range []int{2, sortParallelMin - 1, n} {
				in := make([]rec, m)
				for i := range in {
					in[i] = rec{km: gen(i), tag: uint32(i)}
				}
				got := append([]rec(nil), in...)
				SortByKmer(got, make([]rec, m), workers, recKmer)
				checkSorted(t, in, got, name)
			}
		}
	}
}

func TestSortByKmerZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := make([]rec, sortParallelMin-1)
	scratch := make([]rec, len(a))
	if avg := testing.AllocsPerRun(20, func() {
		for i := range a {
			a[i] = rec{km: randomKmer(rng, 33)}
		}
		SortByKmer(a, scratch, 8, recKmer)
	}); avg != 0 {
		t.Errorf("SortByKmer below the parallel threshold allocates %.1f per run, want 0", avg)
	}
}

// FuzzSortByKmer decodes the input into 16-byte keys (with a worker count
// from the first byte) and checks SortByKmer against the oracle.
func FuzzSortByKmer(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(make([]byte, 1+16*40))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		workers := int(data[0]%16) + 1
		data = data[1:]
		in := make([]rec, 0, len(data)/16)
		for i := 0; i+16 <= len(data); i += 16 {
			km := Kmer{Hi: binary.LittleEndian.Uint64(data[i:]), Lo: binary.LittleEndian.Uint64(data[i+8:])}
			in = append(in, rec{km: km, tag: uint32(len(in))})
		}
		got := append([]rec(nil), in...)
		SortByKmer(got, make([]rec, len(got)), workers, recKmer)
		checkSorted(t, in, got, "fuzzed keys")
	})
}
