package bzip2x

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// FuzzBWT checks the group-refining rotation sort against the original
// prefix doubling: the same last column and the same origPtr, on the
// input and on the input repeated, whose rotations tie in groups.
func FuzzBWT(f *testing.F) {
	for _, data := range corpus() {
		if len(data) > 4096 {
			data = data[:4096]
		}
		f.Add(data, uint8(0))
	}
	f.Add([]byte("ab"), uint8(200))
	f.Add([]byte("abcab"), uint8(3))
	f.Add([]byte{0, 0, 1}, uint8(7))
	f.Fuzz(func(t *testing.T, src []byte, reps uint8) {
		if len(src)*(1+int(reps)) > 1<<16 {
			return
		}
		data := bytes.Repeat(src, 1+int(reps))
		last, ptr := bwt(data)
		wantLast, wantPtr := refBWT(data)
		if !bytes.Equal(last, wantLast) || ptr != wantPtr {
			t.Fatalf("bwt(%q) = %q, %d; want %q, %d", data, last, ptr, wantLast, wantPtr)
		}
	})
}

// TestHuffmanLengthsMatchReference checks the merge-based package-merge
// against the original sort-based one on bzip2 alphabets (2 to 258 symbols
// in use) at the encoder's length limit: any difference in tie order would
// change the bitstream.
func TestHuffmanLengthsMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		freq := make([]int, 3+rng.Intn(256))
		spread := 1 + rng.Intn(4)
		for i := range freq {
			switch rng.Intn(4) {
			case 0: // unused
			case 1:
				freq[i] = rng.Intn(spread) // heavy ties
			case 2:
				freq[i] = 1 << rng.Intn(20) // skew past the length limit
			default:
				freq[i] = rng.Intn(5000)
			}
		}
		got, want := buildCodeLengths(freq, maxCodeLen), refBuildCodeLengths(freq, maxCodeLen)
		if !slices.Equal(got, want) {
			t.Logf("freq %v:\n got %v\nwant %v", freq, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// refBuildCodeLengths is the original package-merge, kept as the reference
// the rewrite is checked against. It computes length-limited Huffman code
// lengths. Every symbol is assigned a non-zero length (bzip2 tables
// must cover the whole block alphabet; zero-frequency symbols get the
// maximum length).
func refBuildCodeLengths(freq []int, maxBits int) []int {
	adj := make([]int, len(freq))
	for i, f := range freq {
		if f == 0 {
			adj[i] = 1 // present with minimal weight
		} else {
			adj[i] = f + 1
		}
	}
	type item struct {
		w    int
		syms []int
	}
	level := make([]item, len(adj))
	for i, f := range adj {
		level[i] = item{w: f, syms: []int{i}}
	}
	sortItems := func(xs []item) {
		sort.SliceStable(xs, func(a, b int) bool { return xs[a].w < xs[b].w })
	}
	sortItems(level)
	prev := append([]item(nil), level...)
	for bit := 1; bit < maxBits; bit++ {
		var pkgs []item
		for i := 0; i+1 < len(prev); i += 2 {
			m := item{w: prev[i].w + prev[i+1].w}
			m.syms = append(append([]int(nil), prev[i].syms...), prev[i+1].syms...)
			pkgs = append(pkgs, m)
		}
		next := make([]item, 0, len(adj)+len(pkgs))
		for i, f := range adj {
			next = append(next, item{w: f, syms: []int{i}})
		}
		next = append(next, pkgs...)
		sortItems(next)
		prev = next
	}
	take := 2*len(adj) - 2
	lengths := make([]int, len(freq))
	for i := 0; i < take && i < len(prev); i++ {
		for _, s := range prev[i].syms {
			lengths[s]++
		}
	}
	if len(adj) == 1 {
		lengths[0] = 1
	}
	return lengths
}

// refBWT is the original prefix-doubling transform, kept as the reference
// the group-refining sort is checked against. It computes the
// Burrows-Wheeler transform of block: the last column of
// the sorted cyclic-rotation matrix, plus the row index of the original
// string. Rotations are sorted by Manber-Myers prefix doubling with
// counting-sort passes — O(n log n) and independent of input pathology,
// which matters because bzip2's classic pointer sort is quadratic on
// repetitive inputs.
func refBWT(block []byte) (last []byte, origPtr int) {
	n := len(block)
	if n == 0 {
		return nil, 0
	}
	sa := make([]int, n)
	rank := make([]int, n)
	tmp := make([]int, n)
	bound := n + 1
	if bound < 257 {
		bound = 257
	}
	cnt := make([]int, bound)

	// radixPass stably sorts sa by key values in [0, width).
	radixPass := func(key []int, width int) {
		for i := 0; i < width; i++ {
			cnt[i] = 0
		}
		for _, s := range sa {
			cnt[key[s]]++
		}
		sum := 0
		for i := 0; i < width; i++ {
			c := cnt[i]
			cnt[i] = sum
			sum += c
		}
		for _, s := range sa {
			tmp[cnt[key[s]]] = s
			cnt[key[s]]++
		}
		copy(sa, tmp)
	}

	for i := 0; i < n; i++ {
		sa[i] = i
		rank[i] = int(block[i])
	}
	radixPass(rank, 257)

	// Re-rank after the first character sort.
	newRank := make([]int, n)
	reRank := func(k int) int {
		newRank[sa[0]] = 0
		maxR := 0
		for i := 1; i < n; i++ {
			a, b := sa[i-1], sa[i]
			same := rank[a] == rank[b]
			if same && k > 0 {
				same = rank[(a+k)%n] == rank[(b+k)%n]
			}
			if same {
				newRank[b] = newRank[a]
			} else {
				maxR++
				newRank[b] = maxR
			}
		}
		copy(rank, newRank)
		return maxR
	}
	maxR := reRank(0)

	secondKey := make([]int, n)
	for k := 1; maxR < n-1 && k <= n; k <<= 1 {
		for i := 0; i < n; i++ {
			secondKey[i] = rank[(i+k)%n]
		}
		radixPass(secondKey, maxR+2)
		radixPass(rank, maxR+2)
		maxR = reRank(k)
	}

	last = make([]byte, n)
	for i, s := range sa {
		last[i] = block[(s+n-1)%n]
		if s == 0 {
			origPtr = i
		}
	}
	return last, origPtr
}
