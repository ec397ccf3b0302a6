package gzipx

import (
	"encoding/binary"
	"io"
	"math/bits"
	"sync"
)

// DEFLATE symbol tables (RFC 1951 §3.2.5).

var lengthBase = [29]int{
	3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
	35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258,
}

var lengthExtra = [29]uint{
	0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
	3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
}

var distBase = [30]int{
	1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
	257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
}

var distExtra = [30]uint{
	0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
	7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
}

// clOrder is the storage order of code-length-code lengths.
var clOrder = [19]int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// lengthSyms maps a match length (3..258) to its litlen symbol.
var lengthSyms = func() (t [maxMatch + 1]uint16) {
	c := 0
	for l := minMatch; l <= maxMatch; l++ {
		for c+1 < len(lengthBase) && lengthBase[c+1] <= l {
			c++
		}
		t[l] = uint16(257 + c)
	}
	return t
}()

// lengthCode maps a match length (3..258) to its litlen symbol.
func lengthCode(l int) int { return int(lengthSyms[l]) }

// distCode maps a distance (1..32768) to its distance symbol. Past 4, each
// power of two of d-1 spans two symbols, split by the bit below the top.
func distCode(d int) int {
	if d <= 4 {
		return d - 1
	}
	x := uint32(d - 1)
	top := bits.Len32(x) - 1
	return 2*top + int(x>>(top-1)&1)
}

// token encodes a literal (high bit clear) or a match (length<<16 | dist).
type token uint32

func litToken(b byte) token         { return token(b) }
func matchToken(l, d int) token     { return token(1<<31 | uint32(l)<<16 | uint32(d)) }
func (t token) isMatch() bool       { return t&(1<<31) != 0 }
func (t token) lit() byte           { return byte(t) }
func (t token) lenDist() (int, int) { return int(t >> 16 & 0x7FFF), int(t & 0xFFFF) }

const (
	maxMatch   = 258
	minMatch   = 3
	windowSize = 32 * 1024
	hashBits   = 15
	maxChain   = 64
	blockSize  = 1 << 16 // tokens per emitted block
)

// Deflate compresses src into w as a raw DEFLATE stream.
func Deflate(w io.Writer, src []byte) error {
	c := compressors.Get().(*compressor)
	defer compressors.Put(c)
	c.reset(src, w)
	c.run(&c.bw)
	err := c.bw.flush()
	c.src, c.bw.w = nil, nil // keep no caller data in the pool
	return err
}

// compressors recycles match-finder state, which costs more to allocate
// and zero than to reuse.
var compressors = sync.Pool{New: func() any {
	return &compressor{head: make([]int32, 1<<hashBits), prev: new([windowSize]uint16)}
}}

// compressor is the match finder's state. head[h] is the latest position
// whose next three bytes hash to h, or -1. prev[p%windowSize] is the
// distance back from p to the previous position with the same hash. Any
// distance past the window ends the chain, so it is stored capped at
// 0xFFFF, and a window's worth of slots holds every live link.
type compressor struct {
	src    []byte
	head   []int32
	prev   *[windowSize]uint16
	tokens []token
	bw     bitWriter
}

func (c *compressor) reset(src []byte, w io.Writer) {
	c.src, c.bw.w = src, w
	for i := range c.head {
		c.head[i] = -1
	}
	c.tokens = c.tokens[:0]
}

func hash3(b []byte) uint32 {
	v := uint32(b[0])<<16 | uint32(b[1])<<8 | uint32(b[2])
	return (v * 0x9E3779B1) >> (32 - hashBits)
}

func (c *compressor) insert(pos int) {
	if pos+minMatch > len(c.src) {
		return
	}
	h := hash3(c.src[pos:])
	c.prev[pos&(windowSize-1)] = uint16(min(pos-int(c.head[h]), 0xFFFF))
	c.head[h] = int32(pos)
}

// findMatch searches the hash chain for the longest match at pos.
func (c *compressor) findMatch(pos int) (length, dist int) {
	if pos+minMatch > len(c.src) {
		return 0, 0
	}
	limit := pos - windowSize
	if limit < 0 {
		limit = 0
	}
	maxLen := len(c.src) - pos
	if maxLen > maxMatch {
		maxLen = maxMatch
	}
	src, prev := c.src, c.prev
	cur := src[pos : pos+maxLen]
	cand := c.head[hash3(cur)]
	if cand < int32(limit) {
		return 0, 0
	}
	// Walk at most maxChain candidates, most recent first. After the
	// first, a candidate can only improve on best if it agrees on the
	// byte at best.
	best := matchLen(src[cand:], cur)
	dist = pos - int(cand)
	for chain := maxChain - 1; best < maxLen && chain > 0; chain-- {
		cand -= int32(prev[cand&(windowSize-1)])
		if cand < int32(limit) {
			break
		}
		if src[int(cand)+best] != cur[best] {
			continue
		}
		if l := matchLen(src[cand:], cur); l > best {
			best = l
			dist = pos - int(cand)
		}
	}
	if best < minMatch {
		return 0, 0
	}
	return best, dist
}

// matchLen returns the length of the common prefix of a and b, comparing
// eight bytes at a time.
func matchLen(a, b []byte) int {
	n := 0
	for n+8 <= len(b) && n+8 <= len(a) {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)/8
		}
		n += 8
	}
	for n < len(b) && n < len(a) && a[n] == b[n] {
		n++
	}
	return n
}

// run tokenizes the source and emits blocks.
func (c *compressor) run(bw *bitWriter) {
	pos := 0
	for pos < len(c.src) {
		l, d := c.findMatch(pos)
		if l >= minMatch {
			c.tokens = append(c.tokens, matchToken(l, d))
			for i := 0; i < l; i++ {
				c.insert(pos + i)
			}
			pos += l
		} else {
			c.tokens = append(c.tokens, litToken(c.src[pos]))
			c.insert(pos)
			pos++
		}
		// Flush full blocks, but keep at least one token for the final
		// block so its Huffman alphabets are never degenerate.
		if len(c.tokens) >= blockSize && pos < len(c.src) {
			writeBlock(bw, c.tokens, false)
			c.tokens = c.tokens[:0]
		}
	}
	if len(c.tokens) > 0 {
		writeBlock(bw, c.tokens, true)
	} else {
		writeStoredEmpty(bw) // empty input: final stored block of length 0
	}
}

// writeStoredEmpty emits a final zero-length stored block (the simplest
// valid encoding of an empty stream).
func writeStoredEmpty(bw *bitWriter) {
	bw.writeBits(1, 1) // BFINAL
	bw.writeBits(0, 2) // stored
	bw.align()
	bw.writeBits(0, 16)
	bw.writeBits(0xFFFF, 16)
}

// writeBlock emits one dynamic-Huffman block for the tokens.
func writeBlock(bw *bitWriter, tokens []token, final bool) {
	litFreq := make([]int, 286)
	distFreq := make([]int, 30)
	for _, t := range tokens {
		if t.isMatch() {
			l, d := t.lenDist()
			litFreq[lengthCode(l)]++
			distFreq[distCode(d)]++
		} else {
			litFreq[t.lit()]++
		}
	}
	litFreq[256]++ // end of block
	litLen := buildCodeLengths(litFreq, 15)
	distLen := buildCodeLengths(distFreq, 15)
	// All-literal blocks still must declare a distance alphabet; a single
	// one-bit code is the conventional (and spec-sanctioned) encoding.
	empty := true
	for _, l := range distLen {
		if l != 0 {
			empty = false
			break
		}
	}
	if empty {
		distLen[0] = 1
	}
	litCodes := lsbCodes(litLen)
	distCodes := lsbCodes(distLen)

	// Trim trailing zero lengths but keep the spec minimums.
	hlit := 286
	for hlit > 257 && litLen[hlit-1] == 0 {
		hlit--
	}
	hdist := 30
	for hdist > 1 && distLen[hdist-1] == 0 {
		hdist--
	}

	// RLE-encode the combined length sequence with symbols 16/17/18.
	seq := make([]int, 0, hlit+hdist)
	seq = append(seq, litLen[:hlit]...)
	seq = append(seq, distLen[:hdist]...)
	type clTok struct {
		sym   int
		extra uint32
	}
	var cl []clTok
	for i := 0; i < len(seq); {
		v := seq[i]
		run := 1
		for i+run < len(seq) && seq[i+run] == v {
			run++
		}
		switch {
		case v == 0 && run >= 3:
			for run >= 3 {
				n := run
				if n > 138 {
					n = 138
				}
				if n <= 10 {
					cl = append(cl, clTok{17, uint32(n - 3)})
				} else {
					cl = append(cl, clTok{18, uint32(n - 11)})
				}
				run -= n
				i += n
			}
			for ; run > 0; run-- {
				cl = append(cl, clTok{0, 0})
				i++
			}
		case v != 0 && run >= 4:
			cl = append(cl, clTok{v, 0})
			i++
			run--
			for run >= 3 {
				n := run
				if n > 6 {
					n = 6
				}
				cl = append(cl, clTok{16, uint32(n - 3)})
				run -= n
				i += n
			}
			for ; run > 0; run-- {
				cl = append(cl, clTok{v, 0})
				i++
			}
		default:
			for ; run > 0; run-- {
				cl = append(cl, clTok{v, 0})
				i++
			}
		}
	}

	clFreq := make([]int, 19)
	for _, t := range cl {
		clFreq[t.sym]++
	}
	clLen := buildCodeLengths(clFreq, 7)
	clCodes := lsbCodes(clLen)
	hclen := 19
	for hclen > 4 && clLen[clOrder[hclen-1]] == 0 {
		hclen--
	}

	// Block header.
	if final {
		bw.writeBits(1, 1)
	} else {
		bw.writeBits(0, 1)
	}
	bw.writeBits(2, 2) // dynamic Huffman
	bw.writeBits(uint32(hlit-257), 5)
	bw.writeBits(uint32(hdist-1), 5)
	bw.writeBits(uint32(hclen-4), 4)
	for i := 0; i < hclen; i++ {
		bw.writeBits(uint32(clLen[clOrder[i]]), 3)
	}
	for _, t := range cl {
		bw.writeBits(clCodes[t.sym], uint(clLen[t.sym]))
		switch t.sym {
		case 16:
			bw.writeBits(t.extra, 2)
		case 17:
			bw.writeBits(t.extra, 3)
		case 18:
			bw.writeBits(t.extra, 7)
		}
	}

	// Token payload.
	for _, t := range tokens {
		if t.isMatch() {
			l, d := t.lenDist()
			lc := lengthCode(l)
			bw.writeBits(litCodes[lc], uint(litLen[lc]))
			if eb := lengthExtra[lc-257]; eb > 0 {
				bw.writeBits(uint32(l-lengthBase[lc-257]), eb)
			}
			dc := distCode(d)
			bw.writeBits(distCodes[dc], uint(distLen[dc]))
			if eb := distExtra[dc]; eb > 0 {
				bw.writeBits(uint32(d-distBase[dc]), eb)
			}
		} else {
			b := t.lit()
			bw.writeBits(litCodes[b], uint(litLen[b]))
		}
	}
	bw.writeBits(litCodes[256], uint(litLen[256]))
}
