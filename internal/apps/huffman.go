package apps

import "slices"

// HuffmanLengths computes optimal length-limited Huffman code lengths for
// the symbol weights in freq by package-merge, writing one length per
// symbol to lengths (which must be as long as freq). Symbols of weight 0
// get length 0 and a lone used symbol gets length 1. maxBits must satisfy
// 2^maxBits >= the number of used symbols.
//
// Both codecs' bitstreams depend on how ties between equal weights break,
// so the order is fixed: every level lists single symbols before packages
// of the same weight, singles in symbol order and packages in the order
// they were formed. That is the order a stable sort by weight gives a list
// of the singles followed by the packages.
func HuffmanLengths(freq []int, maxBits int, lengths []int) {
	clear(lengths)
	var syms []int32
	for i, f := range freq {
		if f > 0 {
			syms = append(syms, int32(i))
		}
	}
	n := len(syms)
	switch n {
	case 0:
		return
	case 1:
		lengths[syms[0]] = 1
		return
	}
	slices.SortStableFunc(syms, func(a, b int32) int { return freq[a] - freq[b] })
	single := make([]int, n)
	for i, s := range syms {
		single[i] = freq[s]
	}

	// Level 0 is the singles alone; each later level merges the singles
	// with the packages of adjacent pairs from the level before. Only the
	// weights of the previous level and, per level, which items are
	// packages need keeping.
	width := 2 * n
	isPkg := make([]bool, maxBits*width)
	levelLen := make([]int, maxBits)
	prev := append(make([]int, 0, width), single...)
	cur := make([]int, 0, width)
	levelLen[0] = n
	for bit := 1; bit < maxBits; bit++ {
		flags := isPkg[bit*width : (bit+1)*width]
		cur = cur[:0]
		i, j, np := 0, 0, len(prev)/2
		for i < n || j < np {
			if j < np {
				if p := prev[2*j] + prev[2*j+1]; i == n || p < single[i] {
					flags[len(cur)] = true
					cur = append(cur, p)
					j++
					continue
				}
			}
			cur = append(cur, single[i])
			i++
		}
		levelLen[bit] = len(cur)
		prev, cur = cur, prev
	}

	// The first 2n-2 items of the last level form the code. Walking down,
	// the packages among the items taken at one level are the first ones
	// formed, so they expand to a prefix of the level below; every single
	// taken adds one bit to its symbol's length.
	take := min(2*n-2, levelLen[maxBits-1])
	for bit := maxBits - 1; bit >= 0; bit-- {
		flags := isPkg[bit*width : (bit+1)*width]
		singles, pkgs := 0, 0
		for k := 0; k < take; k++ {
			if flags[k] {
				pkgs++
			} else {
				lengths[syms[singles]]++
				singles++
			}
		}
		take = 2 * pkgs
	}
}

// CanonicalCodes assigns canonical Huffman codes (RFC 1951 §3.2.2) from
// code lengths, as both DEFLATE and bzip2 define them. Returned codes are
// in natural (MSB-first) bit order.
func CanonicalCodes(lengths []int) []uint32 {
	maxLen := 0
	for _, l := range lengths {
		maxLen = max(maxLen, l)
	}
	blCount := make([]int, maxLen+1)
	for _, l := range lengths {
		if l > 0 {
			blCount[l]++
		}
	}
	nextCode := make([]uint32, maxLen+2)
	var code uint32
	for bits := 1; bits <= maxLen; bits++ {
		code = (code + uint32(blCount[bits-1])) << 1
		nextCode[bits] = code
	}
	codes := make([]uint32, len(lengths))
	for i, l := range lengths {
		if l > 0 {
			codes[i] = nextCode[l]
			nextCode[l]++
		}
	}
	return codes
}
