package bzip2x

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"compstor/internal/apps"
)

// corruptError reports a malformed bzip2 stream.
type corruptError string

func (e corruptError) Error() string { return "bzip2x: corrupt stream: " + string(e) }

func errCorrupt(msg string) error { return corruptError(msg) }

// ErrCRC is wrapped by CRC-mismatch errors.
var ErrCRC = errors.New("bzip2x: CRC mismatch")

// Decompress parses a complete .bz2 stream and returns the original data,
// verifying block and stream CRCs.
func Decompress(src []byte) ([]byte, error) {
	return DecompressReader(bytes.NewReader(src))
}

// DecompressReader decompresses one or more concatenated .bz2 streams from
// r (as real bunzip2 does).
func DecompressReader(r io.Reader) ([]byte, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		pooled := apps.GetBufReader(r)
		defer apps.PutBufReader(pooled)
		br = pooled
	}
	bits := newMSBReader(br)
	var out bytes.Buffer
	for stream := 0; ; stream++ {
		if stream > 0 {
			bits.alignByte()
			if !bits.more() {
				return out.Bytes(), nil
			}
		}
		if err := decodeStream(bits, &out); err != nil {
			return nil, err
		}
	}
}

// decodeStream parses a whole "BZh" stream, appending to out.
func decodeStream(bits *msbReader, out *bytes.Buffer) error {
	hdr, err := bits.readBits(32)
	if err != nil {
		return errCorrupt("short header")
	}
	if hdr>>8 != 0x425A68 { // "BZh"
		return errCorrupt("bad magic")
	}
	level := int(hdr&0xFF) - '0'
	if level < 1 || level > 9 {
		return errCorrupt("bad level digit")
	}
	var streamCRC uint32
	for {
		magic, err := bits.readBits(48)
		if err != nil {
			return err
		}
		switch magic {
		case blockMagicHi<<24 | blockMagicLo:
			crc, err := readBlock(bits, out, level)
			if err != nil {
				return err
			}
			streamCRC = combineCRC(streamCRC, crc)
		case eosMagicHi<<24 | eosMagicLo:
			want, err := bits.readBits(32)
			if err != nil {
				return err
			}
			if uint32(want) != streamCRC {
				return fmt.Errorf("%w: stream CRC %08x != %08x", ErrCRC, streamCRC, want)
			}
			return nil
		default:
			return errCorrupt("bad block magic")
		}
	}
}

// huffTable is a canonical Huffman decoder over the block alphabet.
type huffTable struct {
	count []int
	sym   []int
}

func newHuffTable(lengths []int) (*huffTable, error) {
	maxLen := 0
	for _, l := range lengths {
		if l < 1 || l > 23 {
			return nil, errCorrupt("code length out of range")
		}
		if l > maxLen {
			maxLen = l
		}
	}
	t := &huffTable{count: make([]int, maxLen+1)}
	for _, l := range lengths {
		t.count[l]++
	}
	offs := make([]int, maxLen+2)
	for l := 1; l <= maxLen; l++ {
		offs[l+1] = offs[l] + t.count[l]
	}
	t.sym = make([]int, len(lengths))
	for i, l := range lengths {
		t.sym[offs[l]] = i
		offs[l]++
	}
	return t, nil
}

func (t *huffTable) decode(r *msbReader) (int, error) {
	var code, first, index int
	for l := 1; l < len(t.count); l++ {
		bit, err := r.readBit()
		if err != nil {
			return 0, err
		}
		code |= bit
		cnt := t.count[l]
		if code-first < cnt {
			return t.sym[index+code-first], nil
		}
		index += cnt
		first = (first + cnt) << 1
		code <<= 1
	}
	return 0, errCorrupt("invalid Huffman code")
}

// readBlock decodes one block and appends its data to out, returning the
// block CRC from the header after verifying it.
func readBlock(bits *msbReader, out *bytes.Buffer, level int) (uint32, error) {
	hdrCRC, err := bits.readBits(32)
	if err != nil {
		return 0, err
	}
	randomised, err := bits.readBits(1)
	if err != nil {
		return 0, err
	}
	if randomised != 0 {
		return 0, errCorrupt("randomised blocks are deprecated and unsupported")
	}
	origPtr64, err := bits.readBits(24)
	if err != nil {
		return 0, err
	}
	origPtr := int(origPtr64)

	// Symbol map.
	groups, err := bits.readBits(16)
	if err != nil {
		return 0, err
	}
	var used []byte
	for g := 0; g < 16; g++ {
		if groups&(1<<(15-g)) == 0 {
			continue
		}
		row, err := bits.readBits(16)
		if err != nil {
			return 0, err
		}
		for b := 0; b < 16; b++ {
			if row&(1<<(15-b)) != 0 {
				used = append(used, byte(g*16+b))
			}
		}
	}
	if len(used) == 0 {
		return 0, errCorrupt("empty symbol map")
	}
	alpha := len(used) + 2
	eob := alpha - 1

	nGroups64, err := bits.readBits(3)
	if err != nil {
		return 0, err
	}
	nGroups := int(nGroups64)
	if nGroups < 2 || nGroups > 6 {
		return 0, errCorrupt("bad group count")
	}
	nSel64, err := bits.readBits(15)
	if err != nil {
		return 0, err
	}
	nSel := int(nSel64)
	if nSel < 1 {
		return 0, errCorrupt("no selectors")
	}
	// Selectors, MTF-decoded.
	mtfSel := make([]int, nGroups)
	for i := range mtfSel {
		mtfSel[i] = i
	}
	selectors := make([]int, nSel)
	for i := 0; i < nSel; i++ {
		j := 0
		for {
			bit, err := bits.readBit()
			if err != nil {
				return 0, err
			}
			if bit == 0 {
				break
			}
			j++
			if j >= nGroups {
				return 0, errCorrupt("selector out of range")
			}
		}
		v := mtfSel[j]
		copy(mtfSel[1:j+1], mtfSel[:j])
		mtfSel[0] = v
		selectors[i] = v
	}

	// Code tables.
	tables := make([]*huffTable, nGroups)
	for g := 0; g < nGroups; g++ {
		lengths := make([]int, alpha)
		cur64, err := bits.readBits(5)
		if err != nil {
			return 0, err
		}
		cur := int(cur64)
		for s := 0; s < alpha; s++ {
			for {
				if cur < 1 || cur > 23 {
					return 0, errCorrupt("length delta out of range")
				}
				bit, err := bits.readBit()
				if err != nil {
					return 0, err
				}
				if bit == 0 {
					break
				}
				dir, err := bits.readBit()
				if err != nil {
					return 0, err
				}
				if dir == 0 {
					cur++
				} else {
					cur--
				}
			}
			lengths[s] = cur
		}
		tables[g], err = newHuffTable(lengths)
		if err != nil {
			return 0, err
		}
	}

	// Symbol stream: MTF + RUNA/RUNB decode straight into the BWT column.
	maxBlock := level * 100_000
	mtf := make([]byte, len(used))
	copy(mtf, used)
	var last []byte
	run, shift := 0, 0
	flushRun := func() error {
		if run == 0 {
			return nil
		}
		if len(last)+run > maxBlock+10 {
			return errCorrupt("run overflows block")
		}
		b := mtf[0]
		for i := 0; i < run; i++ {
			last = append(last, b)
		}
		run, shift = 0, 0
		return nil
	}
	symIdx := 0
	for {
		if symIdx/groupSize >= nSel {
			return 0, errCorrupt("selector stream exhausted")
		}
		tbl := tables[selectors[symIdx/groupSize]]
		sym, err := tbl.decode(bits)
		if err != nil {
			return 0, err
		}
		symIdx++
		switch {
		case sym == 0: // RUNA
			run += 1 << shift
			shift++
		case sym == 1: // RUNB
			run += 2 << shift
			shift++
		case sym == eob:
			if err := flushRun(); err != nil {
				return 0, err
			}
			goto done
		default:
			if err := flushRun(); err != nil {
				return 0, err
			}
			j := sym - 1
			if j >= len(mtf) {
				return 0, errCorrupt("MTF index out of range")
			}
			b := mtf[j]
			copy(mtf[1:j+1], mtf[:j])
			mtf[0] = b
			if len(last) >= maxBlock+10 {
				return 0, errCorrupt("block overflows declared size")
			}
			last = append(last, b)
		}
	}
done:
	if origPtr >= len(last) {
		return 0, errCorrupt("origPtr beyond block")
	}
	rle := inverseBWT(last, origPtr)
	data, err := rle1Decode(rle)
	if err != nil {
		return 0, err
	}
	if got := blockCRC(data); got != uint32(hdrCRC) {
		return 0, fmt.Errorf("%w: block CRC %08x != %08x", ErrCRC, got, uint32(hdrCRC))
	}
	out.Write(data)
	return uint32(hdrCRC), nil
}

// rle1Decode reverses the initial run-length encoding.
func rle1Decode(in []byte) ([]byte, error) {
	out := make([]byte, 0, len(in))
	i := 0
	for i < len(in) {
		b := in[i]
		run := 1
		for run < 4 && i+run < len(in) && in[i+run] == b {
			run++
		}
		if run == 4 {
			if i+4 >= len(in) {
				return nil, errCorrupt("truncated RLE1 run")
			}
			extra := int(in[i+4])
			for k := 0; k < 4+extra; k++ {
				out = append(out, b)
			}
			i += 5
		} else {
			out = append(out, in[i:i+run]...)
			i += run
		}
	}
	return out, nil
}
