package bzip2x

import (
	"bytes"

	"compstor/internal/apps"
)

const (
	blockMagicHi = 0x314159 // π
	blockMagicLo = 0x265359
	eosMagicHi   = 0x177245 // √π
	eosMagicLo   = 0x385090
	groupSize    = 50 // symbols per selector group
	maxCodeLen   = 17 // ≤ 20 per the format; 17 keeps package-merge cheap
)

// Options controls the encoder.
type Options struct {
	// Level selects the block size (Level × 100 kB), 1..9. The default (0)
	// means level 1: the rotation sort dominates encode time, and the
	// simulation datasets use files around that scale anyway.
	Level int
}

func (o Options) blockLimit() int {
	l := o.Level
	if l <= 0 {
		l = 1
	}
	if l > 9 {
		l = 9
	}
	return l * 100_000
}

// Compress produces a complete .bz2 stream containing src.
func Compress(src []byte, opt Options) []byte {
	var out bytes.Buffer
	w := newMSBWriter(&out)
	level := opt.blockLimit() / 100_000
	w.writeBits(uint64('B'), 8)
	w.writeBits(uint64('Z'), 8)
	w.writeBits(uint64('h'), 8)
	w.writeBits(uint64('0'+level), 8)
	var streamCRC uint32
	limit := opt.blockLimit()
	for len(src) > 0 {
		// RLE1-encode greedily until the block limit.
		rle, consumed := rle1Encode(src, limit)
		crc := blockCRC(src[:consumed])
		streamCRC = combineCRC(streamCRC, crc)
		writeBlock(w, rle, crc)
		src = src[consumed:]
	}
	w.writeBits(eosMagicHi, 24)
	w.writeBits(eosMagicLo, 24)
	w.writeBits(uint64(streamCRC), 32)
	w.flush()
	return out.Bytes()
}

// rle1Encode applies bzip2's initial run-length encoding (runs of 4-259
// become 4 literals plus a count byte), stopping before the output exceeds
// limit. It returns the encoded bytes and how much input was consumed.
func rle1Encode(src []byte, limit int) (out []byte, consumed int) {
	// A run of four takes five bytes: the output is at most 5/4 of the input.
	out = make([]byte, 0, min(limit, len(src)+len(src)/4+5))
	i := 0
	for i < len(src) && len(out)+5 <= limit {
		b := src[i]
		run := 1
		for i+run < len(src) && run < 259 && src[i+run] == b {
			run++
		}
		if run >= 4 {
			out = append(out, b, b, b, b, byte(run-4))
			i += run
		} else {
			out = append(out, src[i:i+run]...)
			i += run
		}
	}
	return out, i
}

// writeBlock emits one compressed block for RLE1 data.
func writeBlock(w *msbWriter, rle []byte, crc uint32) {
	last, origPtr := bwt(rle)
	syms, used := mtfRLE2(last)
	nUsed := len(used)
	alpha := nUsed + 2
	eob := alpha - 1

	w.writeBits(blockMagicHi, 24)
	w.writeBits(blockMagicLo, 24)
	w.writeBits(uint64(crc), 32)
	w.writeBits(0, 1) // not randomised
	w.writeBits(uint64(origPtr), 24)

	// Symbol map.
	var groups uint16
	var rows [16]uint16
	for _, b := range used {
		groups |= 1 << (15 - b/16)
		rows[b/16] |= 1 << (15 - b%16)
	}
	w.writeBits(uint64(groups), 16)
	for g := 0; g < 16; g++ {
		if groups&(1<<(15-g)) != 0 {
			w.writeBits(uint64(rows[g]), 16)
		}
	}

	// Huffman coding: two identical tables (the format minimum), selector 0
	// everywhere. This sacrifices a little ratio for simplicity; the
	// bitstream stays fully conformant.
	freq := make([]int, alpha)
	for _, s := range syms {
		freq[s]++
	}
	lengths := buildCodeLengths(freq, maxCodeLen)
	codes := apps.CanonicalCodes(lengths)
	nGroups := 2
	nSel := (len(syms) + groupSize - 1) / groupSize
	w.writeBits(uint64(nGroups), 3)
	w.writeBits(uint64(nSel), 15)
	for i := 0; i < nSel; i++ {
		w.writeBits(0, 1) // selector 0, MTF-coded as a bare terminator bit
	}
	for g := 0; g < nGroups; g++ {
		cur := lengths[0]
		w.writeBits(uint64(cur), 5)
		for _, l := range lengths {
			for cur < l {
				w.writeBits(0b10, 2)
				cur++
			}
			for cur > l {
				w.writeBits(0b11, 2)
				cur--
			}
			w.writeBits(0, 1)
		}
	}
	for _, s := range syms {
		w.writeBits(uint64(codes[s]), uint(lengths[s]))
	}
	_ = eob
}

// mtfRLE2 converts the BWT last column into the MTF + RUNA/RUNB symbol
// stream, terminated by the EOB symbol. It returns the symbols and the
// sorted list of byte values in use.
func mtfRLE2(last []byte) (syms []uint16, used []byte) {
	var present [256]bool
	for _, b := range last {
		present[b] = true
	}
	var idxOf [256]byte
	for v := 0; v < 256; v++ {
		if present[v] {
			idxOf[v] = byte(len(used))
			used = append(used, byte(v))
		}
	}
	// mtf holds indices into used, most recent first.
	var mtf [256]byte
	for i := range used {
		mtf[i] = byte(i)
	}
	// A byte yields at most one symbol; a run of r takes at most r digits.
	syms = make([]uint16, 0, len(last)+1)
	run := 0
	for _, b := range last {
		want := idxOf[b]
		if mtf[0] == want {
			run++
			continue
		}
		syms = appendRun(syms, run)
		run = 0
		// Shift the entries in front of want back by one as it is found.
		pos, moved := 1, mtf[0]
		for mtf[pos] != want {
			mtf[pos], moved = moved, mtf[pos]
			pos++
		}
		mtf[pos] = moved
		mtf[0] = want
		syms = append(syms, uint16(pos+1))
	}
	syms = appendRun(syms, run)
	return append(syms, uint16(len(used)+1)), used
}

// appendRun appends a run of run zeros in bijective base 2, with digits
// RUNA (1, coded 0) and RUNB (2, coded 1), least significant first.
func appendRun(syms []uint16, run int) []uint16 {
	for run > 0 {
		if run&1 == 1 {
			syms = append(syms, 0) // RUNA
			run = (run - 1) / 2
		} else {
			syms = append(syms, 1) // RUNB
			run = (run - 2) / 2
		}
	}
	return syms
}

// buildCodeLengths computes length-limited Huffman code lengths. Every
// symbol is assigned a non-zero length (bzip2 tables must cover the whole
// block alphabet), so zero-frequency symbols take part with the minimal
// weight and every other weight is raised by one.
func buildCodeLengths(freq []int, maxBits int) []int {
	adj := make([]int, len(freq))
	for i, f := range freq {
		adj[i] = f + 1
	}
	lengths := make([]int, len(freq))
	apps.HuffmanLengths(adj, maxBits, lengths)
	return lengths
}
