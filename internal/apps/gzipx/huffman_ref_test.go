package gzipx

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// randomFreqs draws a frequency vector over an alphabet of n symbols: some
// unused, many tied, and some steeply skewed so the length limit binds.
func randomFreqs(rng *rand.Rand, n int) []int {
	freq := make([]int, n)
	used := rng.Intn(n + 1)
	spread := 1 + rng.Intn(4)
	for _, i := range rng.Perm(n)[:used] {
		switch rng.Intn(3) {
		case 0:
			freq[i] = 1 + rng.Intn(spread) // heavy ties
		case 1:
			freq[i] = 1 << rng.Intn(24) // skew past the length limit
		default:
			freq[i] = 1 + rng.Intn(1000)
		}
	}
	return freq
}

// TestHuffmanLengthsMatchReference checks the merge-based package-merge
// against the original sort-based one on DEFLATE's three alphabets, ties
// and length limits included: any difference would change the bitstream.
func TestHuffmanLengthsMatchReference(t *testing.T) {
	for _, a := range []struct{ n, maxBits int }{{286, 15}, {30, 15}, {19, 7}} {
		f := func(seed int64) bool {
			freq := randomFreqs(rand.New(rand.NewSource(seed)), a.n)
			got, want := buildCodeLengths(freq, a.maxBits), refBuildCodeLengths(freq, a.maxBits)
			if !slices.Equal(got, want) {
				t.Logf("alphabet %d, maxBits %d, freq %v:\n got %v\nwant %v", a.n, a.maxBits, freq, got, want)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Error(err)
		}
	}
}

// TestSymbolCodesMatchLinearScan checks the length table and the distance
// bit arithmetic against a scan of the RFC 1951 base tables.
func TestSymbolCodesMatchLinearScan(t *testing.T) {
	scan := func(base []int, v int) int {
		for i := len(base) - 1; i >= 0; i-- {
			if v >= base[i] {
				return i
			}
		}
		return 0
	}
	for l := minMatch; l <= maxMatch; l++ {
		if got, want := lengthCode(l), 257+scan(lengthBase[:], l); got != want {
			t.Fatalf("lengthCode(%d) = %d, want %d", l, got, want)
		}
	}
	for d := 1; d <= windowSize; d++ {
		if got, want := distCode(d), scan(distBase[:], d); got != want {
			t.Fatalf("distCode(%d) = %d, want %d", d, got, want)
		}
	}
}

// refBuildCodeLengths is the original package-merge implementation, kept as
// the reference the table-free rewrite is checked against. It computes optimal length-limited Huffman code lengths for
// the given symbol frequencies using the package-merge algorithm. Symbols
// with zero frequency get length 0. maxBits must satisfy
// 2^maxBits >= number of used symbols.
func refBuildCodeLengths(freq []int, maxBits int) []int {
	lengths := make([]int, len(freq))
	type sym struct {
		idx int
		f   int
	}
	var used []sym
	for i, f := range freq {
		if f > 0 {
			used = append(used, sym{i, f})
		}
	}
	switch len(used) {
	case 0:
		return lengths
	case 1:
		lengths[used[0].idx] = 1
		return lengths
	}

	// Package-merge: coins[level] is a list of (weight, symbol set) items;
	// we approximate symbol sets by counting how many times each original
	// symbol appears in chosen packages.
	type item struct {
		w    int
		syms []int // indices into used
	}
	level := make([]item, len(used))
	for i, s := range used {
		level[i] = item{w: s.f, syms: []int{i}}
	}
	sortItems := func(xs []item) {
		sort.SliceStable(xs, func(a, b int) bool { return xs[a].w < xs[b].w })
	}
	sortItems(level)
	prev := append([]item(nil), level...)
	for bit := 1; bit < maxBits; bit++ {
		// Package pairs from prev, merge with fresh singletons.
		var pkgs []item
		for i := 0; i+1 < len(prev); i += 2 {
			merged := item{w: prev[i].w + prev[i+1].w}
			merged.syms = append(append([]int(nil), prev[i].syms...), prev[i+1].syms...)
			pkgs = append(pkgs, merged)
		}
		next := make([]item, 0, len(used)+len(pkgs))
		for i, s := range used {
			next = append(next, item{w: s.f, syms: []int{i}})
		}
		next = append(next, pkgs...)
		sortItems(next)
		prev = next
	}
	// Take the first 2n-2 items; each appearance of a symbol adds one to
	// its code length.
	take := 2*len(used) - 2
	counts := make([]int, len(used))
	for i := 0; i < take && i < len(prev); i++ {
		for _, s := range prev[i].syms {
			counts[s]++
		}
	}
	for i, s := range used {
		lengths[s.idx] = counts[i]
	}
	return lengths
}
