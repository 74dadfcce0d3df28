package dna

import "sync"

// Radix sort parameters: 11-bit digits cover a 64-bit word in six passes
// (the last digit holds 9 bits), and a 2048-entry histogram stays in L1.
const (
	radixBits    = 11
	radixBuckets = 1 << radixBits
	radixMask    = radixBuckets - 1
)

// sortParallelMin is the element count below which SortByKmer stays on one
// goroutine: fan-out and the merge rounds cost more than they save on small
// inputs.
const sortParallelMin = 1 << 13

// SortByKmer orders a ascending by key using up to workers goroutines and
// the caller's scratch buffer (len(scratch) >= len(a)). Each worker
// LSD-radix-sorts one span of a — 11-bit digits over Lo, then Hi, skipping
// every digit that is equal across the span's keys — and the sorted spans
// are merged pairwise, ping-ponging between a and scratch. The sort is
// stable. It allocates nothing when workers <= 1 or len(a) is below the
// parallel threshold, as long as key is a plain function.
func SortByKmer[T any](a, scratch []T, workers int, key func(*T) Kmer) {
	n := len(a)
	if n <= 1 {
		return
	}
	scratch = scratch[:n]
	if workers <= 1 || n < sortParallelMin {
		// The parallel body lives in its own function: its goroutine
		// closures capture the buffers, and sharing a stack frame with that
		// capture would heap-allocate on this sequential path too.
		radixSort(a, scratch, key)
		return
	}
	sortSpans(a, scratch, workers, key)
}

// sortSpans radix-sorts per-worker spans concurrently, then merges adjacent
// sorted spans pairwise until one run remains, leaving the result in a.
func sortSpans[T any](a, scratch []T, workers int, key func(*T) Kmer) {
	n := len(a)
	// Keep spans at least ~1k elements so per-goroutine work dwarfs the
	// fan-out cost; n >= sortParallelMin keeps this at least 8.
	workers = min(workers, n/1024)
	type span struct{ lo, hi int }
	spans := make([]span, 0, workers)
	for i := 0; i < workers; i++ {
		spans = append(spans, span{i * n / workers, (i + 1) * n / workers})
	}
	var wg sync.WaitGroup
	for _, sp := range spans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			radixSort(a[sp.lo:sp.hi], scratch[sp.lo:sp.hi], key)
		}()
	}
	wg.Wait()

	src, dst := a, scratch
	for len(spans) > 1 {
		next := make([]span, 0, (len(spans)+1)/2)
		for i := 0; i < len(spans); i += 2 {
			if i+1 == len(spans) {
				sp := spans[i]
				copy(dst[sp.lo:sp.hi], src[sp.lo:sp.hi])
				next = append(next, sp)
				continue
			}
			x, y := spans[i], spans[i+1]
			next = append(next, span{x.lo, y.hi})
			wg.Add(1)
			go func() {
				defer wg.Done()
				mergeByKmer(dst[x.lo:y.hi], src[x.lo:x.hi], src[y.lo:y.hi], key)
			}()
		}
		wg.Wait()
		spans = next
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// radixSort is the single-goroutine LSD radix sort of a, using b (same
// length) as the ping-pong buffer; the result always ends in a.
func radixSort[T any](a, b []T, key func(*T) Kmer) {
	// A digit on which every key agrees cannot reorder anything: the OR and
	// AND of all keys expose the varying bits, so a k <= 32 key never pays
	// a pass for its zero Hi word.
	or, and := Kmer{}, Kmer{Hi: ^uint64(0), Lo: ^uint64(0)}
	for i := range a {
		km := key(&a[i])
		or.Hi, or.Lo = or.Hi|km.Hi, or.Lo|km.Lo
		and.Hi, and.Lo = and.Hi&km.Hi, and.Lo&km.Lo
	}
	varying := Kmer{Hi: or.Hi ^ and.Hi, Lo: or.Lo ^ and.Lo}
	src, dst := a, b
	var count [radixBuckets]int
	for _, hi := range [2]bool{false, true} {
		for shift := 0; shift < 64; shift += radixBits {
			if kmerDigit(varying, hi, shift) == 0 {
				continue
			}
			clear(count[:])
			for i := range src {
				count[kmerDigit(key(&src[i]), hi, shift)]++
			}
			sum := 0
			for d, c := range count {
				count[d] = sum
				sum += c
			}
			for i := range src {
				d := kmerDigit(key(&src[i]), hi, shift)
				dst[count[d]] = src[i]
				count[d]++
			}
			src, dst = dst, src
		}
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// kmerDigit extracts the radix digit at shift from the Lo or Hi word.
func kmerDigit(km Kmer, hi bool, shift int) uint64 {
	w := km.Lo
	if hi {
		w = km.Hi
	}
	return w >> shift & radixMask
}

// mergeByKmer stably merges the sorted runs x and y into dst
// (len(dst) = len(x)+len(y)); on equal keys x's element goes first.
func mergeByKmer[T any](dst, x, y []T, key func(*T) Kmer) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		if key(&y[j]).Less(key(&x[i])) {
			dst[k] = y[j]
			j++
		} else {
			dst[k] = x[i]
			i++
		}
		k++
	}
	copy(dst[k:], x[i:])
	copy(dst[k+len(x)-i:], y[j:])
}
