package main

import (
	"bytes"
	"compress/bzip2"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
)

// oracle checks a kernel's output against an independent computation over
// its input. name is the file argument the kernel printed, "" for stdin.
func oracle(kernel, name string, in, out []byte) bool {
	suffix := ""
	if name != "" {
		suffix = " " + name
	}
	switch kernel {
	case "grep":
		n := 0
		for _, line := range lines(in) {
			if strings.Contains(line, grepWord) {
				n++
			}
		}
		return string(out) == fmt.Sprintf("%d\n", n)
	case "gawk":
		words := map[string]bool{}
		for _, line := range lines(in) {
			for _, w := range strings.Fields(line) {
				words[w] = true
			}
		}
		return string(out) == fmt.Sprintf("%d\n", len(words))
	case "wc":
		return string(out) == fmt.Sprintf("%7d %7d %7d%s\n", bytes.Count(in, []byte("\n")), len(bytes.Fields(in)), len(in), suffix)
	case "cksum":
		return string(out) == fmt.Sprintf("%08x %d%s\n", crc32.ChecksumIEEE(in), len(in), suffix)
	case "gzip":
		zr, err := gzip.NewReader(bytes.NewReader(out))
		if err != nil {
			return false
		}
		plain, err := io.ReadAll(zr)
		return err == nil && bytes.Equal(plain, in)
	case "bzip2":
		plain, err := io.ReadAll(bzip2.NewReader(bytes.NewReader(out)))
		return err == nil && bytes.Equal(plain, in)
	}
	return false
}

// lines splits text into lines the way grep reads them: a final newline
// ends the last line rather than starting an empty one.
func lines(in []byte) []string {
	if len(in) == 0 {
		return nil
	}
	return strings.Split(strings.TrimSuffix(string(in), "\n"), "\n")
}

// passed reports whether one operation succeeded and produced the right
// output. Writes and flushes have no output; their error is the check.
func (o op) passed() bool {
	_, ok := o.checked()
	return ok
}

// checked returns the output that passed the operation's check.
func (o op) checked() ([]byte, bool) {
	switch {
	case o.err != nil:
		return nil, false
	case o.kernel == "write" || o.kernel == "flush":
		return nil, true
	case o.want != nil:
		return o.out, bytes.Equal(o.out, o.want)
	}
	for _, c := range append([][]byte{o.out}, o.alt...) {
		if oracle(o.kernel, o.name, o.input, c) {
			return c, true
		}
	}
	return nil, false
}

// countFailed returns how many operations failed or produced wrong output.
func countFailed(ops []op) int {
	n := 0
	for _, o := range ops {
		if !o.passed() {
			n++
		}
	}
	return n
}

// digest hashes every simulated output together with its virtual
// completion time, in the workload's fixed operation order.
func digest(ops []op) string {
	h := sha256.New()
	var buf [8]byte
	for _, o := range ops {
		io.WriteString(h, o.kernel+"\x00"+o.name+"\x00")
		binary.LittleEndian.PutUint64(buf[:], uint64(o.done))
		h.Write(buf[:])
		if o.err != nil {
			io.WriteString(h, "err:"+o.err.Error())
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(len(o.out)))
		h.Write(buf[:])
		h.Write(o.out)
	}
	return hex.EncodeToString(h.Sum(nil))
}
