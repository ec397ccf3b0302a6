package bzip2x

import (
	"slices"
	"sync"
)

// bwt computes the Burrows-Wheeler transform of block: the last column of
// the sorted cyclic-rotation matrix, plus the row index of the original
// string.
//
// Rotations are sorted by Larsson–Sadakane group refinement: a radix sort
// on the first eight bytes, then rounds that double the sorted prefix
// length h and re-sort only the groups still tied, each by the group of
// the rotation h bytes on. Unlike bzip2's pointer sort it stays O(n log n)
// on repetitive blocks. Rotations still tied once h reaches n are equal;
// they rank in ascending index order, which origPtr depends on.
func bwt(block []byte) (last []byte, origPtr int) {
	n := len(block)
	if n == 0 {
		return nil, 0
	}
	r := rotSorts.Get().(*rotSort)
	defer rotSorts.Put(r)
	r.reset(n)
	r.bucketSort(block)
	for h := int32(prefixBytes); h < r.n && r.sa[0] != -r.n; h *= 2 {
		r.h = h
		r.refine()
	}

	// A sorted rotation i owns row grp[i]. The rows of a group still tied
	// hold equal rotations, which share their last byte.
	last = make([]byte, n)
	last[r.grp[0]] = block[n-1]
	for i := 1; i < n; i++ {
		last[r.grp[i]] = block[i-1]
	}
	origPtr = int(r.grp[0])
	for p := int32(0); p < r.n; {
		if s := r.sa[p]; s < 0 {
			p -= s
			continue
		}
		end := r.grp[r.sa[p]]
		for k := p; k < end; k++ {
			last[k] = last[end]
		}
		if end == r.grp[0] {
			origPtr = int(p)
		}
		p = end + 1
	}
	return last, origPtr
}

// rotSort is the state of the rotation sort. sa lists rotations in sorted
// order, except that a run of rows whose rotations are fully sorted may be
// collapsed to its length, negated, in its first slot. grp[i] is the last
// row of the group rotation i belongs to. tmp, keys and tmpKeys are
// scratch for the sorts.
type rotSort struct {
	sa, grp, tmp  []int32
	keys, tmpKeys []uint64
	n, h          int32
}

// rotSorts recycles sort state between blocks: its buffers take 28 bytes
// per block byte.
var rotSorts = sync.Pool{New: func() any { return new(rotSort) }}

func (r *rotSort) reset(n int) {
	r.n = int32(n)
	r.sa, r.grp, r.tmp = slices.Grow(r.sa[:0], n)[:n], slices.Grow(r.grp[:0], n)[:n], slices.Grow(r.tmp[:0], n)[:n]
	r.keys, r.tmpKeys = slices.Grow(r.keys[:0], n)[:n], slices.Grow(r.tmpKeys[:0], n)[:n]
}

// prefixBytes is how many leading bytes, one word's worth, the initial
// radix sort orders rotations by.
const prefixBytes = 8

// bucketSort groups the rotations by their first prefixBytes bytes
// (wrapping around short blocks): it packs each prefix into a word and
// radix-sorts the words a byte at a time, carrying the rotation indices.
func (r *rotSort) bucketSort(block []byte) {
	n := len(block)
	keys, tmpKeys, sa, tmp := r.keys, r.tmpKeys, r.sa, r.tmp
	var hist [prefixBytes][256]int32
	var key uint64
	j := 0
	for k := 0; k < prefixBytes; k++ {
		key = key<<8 | uint64(block[j])
		if j++; j == n {
			j = 0
		}
	}
	for i := range keys {
		keys[i] = key
		sa[i] = int32(i)
		hist[0][byte(key)]++
		hist[1][byte(key>>8)]++
		hist[2][byte(key>>16)]++
		hist[3][byte(key>>24)]++
		hist[4][byte(key>>32)]++
		hist[5][byte(key>>40)]++
		hist[6][byte(key>>48)]++
		hist[7][byte(key>>56)]++
		key = key<<8 | uint64(block[j])
		if j++; j == n {
			j = 0
		}
	}
	for d := range hist {
		next := &hist[d]
		sum := int32(0)
		for c, k := range next {
			next[c] = sum
			sum += k
		}
		shift := 8 * d
		for k, key := range keys {
			c := byte(key >> shift)
			tmpKeys[next[c]] = key
			tmp[next[c]] = sa[k]
			next[c]++
		}
		keys, tmpKeys = tmpKeys, keys
		sa, tmp = tmp, sa
	}
	r.sa, r.tmp = sa, tmp
	r.groupRuns(0, keys, 0)
}

// key is the sort key of rotation i in the current round: the group of the
// rotation h bytes further on.
func (r *rotSort) key(i int32) int32 {
	j := i + r.h
	if j >= r.n {
		j -= r.n
	}
	return r.grp[j]
}

// setGroup makes rows lo..hi one group, numbered hi. A group of one is
// sorted.
func (r *rotSort) setGroup(lo, hi int32) {
	for k := lo; k <= hi; k++ {
		r.grp[r.sa[k]] = hi
	}
	if lo == hi {
		r.sa[lo] = -1
	}
}

// refine runs one round: it splits every unsorted group by key, and
// collapses runs of sorted rows as it passes them.
func (r *rotSort) refine() {
	p, sorted := int32(0), int32(0)
	for p < r.n {
		if s := r.sa[p]; s < 0 {
			p -= s
			sorted += s
			continue
		}
		if sorted != 0 {
			r.sa[p+sorted] = sorted
			sorted = 0
		}
		end := r.grp[r.sa[p]] + 1
		r.split(p, end)
		p = end
	}
	if sorted != 0 {
		r.sa[p+sorted] = sorted
	}
}

// split sorts rows lo..hi-1, one unsorted group, by key and makes each run
// of equal keys a group. Every key is read before any group changes, since
// a key may be the group of a rotation in this very group.
func (r *rotSort) split(lo, hi int32) {
	words := r.keys[:hi-lo]
	for k, i := range r.sa[lo:hi] {
		words[k] = uint64(r.key(i))<<32 | uint64(i)
	}
	slices.Sort(words)
	for k, w := range words {
		r.sa[lo+int32(k)] = int32(uint32(w))
	}
	r.groupRuns(lo, words, 32)
}

// groupRuns makes a group of each run of rows, from lo on, whose sorted
// keys agree above bit shift.
func (r *rotSort) groupRuns(lo int32, keys []uint64, shift uint) {
	for a := 0; a < len(keys); {
		b := a + 1
		for b < len(keys) && keys[b]>>shift == keys[a]>>shift {
			b++
		}
		r.setGroup(lo+int32(a), lo+int32(b-1))
		a = b
	}
}

// inverseBWT reconstructs the original block from the last column and the
// original row pointer, using the standard T-vector walk.
func inverseBWT(last []byte, origPtr int) []byte {
	n := len(last)
	if n == 0 {
		return nil
	}
	var counts [256]int
	for _, b := range last {
		counts[b]++
	}
	var base [256]int
	sum := 0
	for v := 0; v < 256; v++ {
		base[v] = sum
		sum += counts[v]
	}
	// next[i]: index in `last` of the row that follows row i's rotation.
	next := make([]int, n)
	var seen [256]int
	for i, b := range last {
		next[base[b]+seen[b]] = i
		seen[b]++
	}
	out := make([]byte, n)
	p := next[origPtr]
	for i := 0; i < n; i++ {
		out[i] = last[p]
		p = next[p]
	}
	return out
}
