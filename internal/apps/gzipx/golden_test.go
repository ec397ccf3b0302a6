package gzipx

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"compstor/internal/textgen"
)

// goldenInputs are the byte-identity inputs shared by the codec golden
// tests: textgen prose at the sizes the workloads use, a book long enough
// to span several blocks, and a periodic input whose rotations tie.
func goldenInputs() []struct {
	name string
	data []byte
} {
	book := textgen.Book(1, 1<<20)
	random := make([]byte, 64<<10)
	rand.New(rand.NewSource(7)).Read(random)
	return []struct {
		name string
		data []byte
	}{
		{"book-0B", book[:0]},
		{"book-1B", book[:1]},
		{"book-32KiB", book[:32<<10]},
		{"book-1MiB", book[:1<<20]},
		{"ab-x50000", bytes.Repeat([]byte("ab"), 50000)},
		{"runs-A", bytes.Repeat([]byte{'A'}, 100000)},
		{"random-64KiB", random},
	}
}

// TestCompressGolden pins the exact bytes Compress emits. Simulated charges,
// virtual times and every BENCH_* artefact depend on the compressed sizes,
// so an encoder change must keep its output byte-identical.
func TestCompressGolden(t *testing.T) {
	want := map[string]string{
		"book-0B":      "30e6fa98fb48c2b132824d1ac5e2243c0be9e9082ff32598d34d7687ca7f6c7f",
		"book-1B":      "eab07ddf296191d8fd511578871d4c5b8b6973105133b705d5d067b187359f70",
		"book-32KiB":   "89996cd4e2aaa5dc5a0cc9bad9587323ec34865d9592e7e18f21958cd93d2096",
		"book-1MiB":    "030941572a52709c6bd2581325e3420ecfac4ad543b033db62581b676f8dcff7",
		"ab-x50000":    "fc6124fd5f9fc3c29fa0b5188c213d9866a83a90a2143a6efa744a939f77753f",
		"runs-A":       "8c7a1c1714fad97a568edce263c3da532713ed6652dc509161d6cf5b2c2f3431",
		"random-64KiB": "c41015a16d6a5f9c4149c7a8d4f446cc596a09107ba181b0b2c16d55ef35c5cd",
	}
	for _, in := range goldenInputs() {
		out, err := Compress(in.data)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != want[in.name] {
			t.Errorf("%s: sha256(Compress) = %s, want %s", in.name, got, want[in.name])
		}
	}
}
