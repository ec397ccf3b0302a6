package bzip2x

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
		"book-0B":      "c82685296a2d914c9acd6f6f6db1d1ad364f502b26af5e6ca8874c09880d5cf9",
		"book-1B":      "ae70609e4e0c45e1eb9ca0cf26675c8d54dea70c17c39ce3dfdf6804517a1a69",
		"book-32KiB":   "99c0f7a73c1615f701603e3aa40ad1cb8ed18f15f816ed99bd82a07a87ca944c",
		"book-1MiB":    "af8a4be5e91dd1ce276aa357e7f09f8335f6bec73a290ff8441c75bb82c5c9d4",
		"ab-x50000":    "12901258ce2a0acdfb9b0fd5b9bef587faaa85390227268a6eb8b0c2bba78ab9",
		"runs-A":       "913b48d6bdcb48069c53006b9b8857f68f4b40d9c4220d10cd8fd795ac37466c",
		"random-64KiB": "72582e5b3c0eeabceb42da00d69a4208f33db696ad46282b818b68e5f8fd5192",
	}
	for _, in := range goldenInputs() {
		out := Compress(in.data, Options{})
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != want[in.name] {
			t.Errorf("%s: sha256(Compress) = %s, want %s", in.name, got, want[in.name])
		}
	}
}
