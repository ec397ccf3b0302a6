package awkx

import (
	"bytes"
	"strings"
	"testing"

	"compstor/internal/apps"
	"compstor/internal/textgen"
)

func benchRun(b *testing.B, prog, input string) {
	b.Helper()
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var out bytes.Buffer
		ctx := &apps.Context{
			Stdin:  strings.NewReader(input),
			Stdout: &out,
			Stderr: &bytes.Buffer{},
		}
		if err := (Gawk{}).Run(ctx, []string{prog}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFieldSplit(b *testing.B) {
	input := strings.Repeat("alpha beta gamma delta epsilon zeta\n", 2000)
	benchRun(b, `{ n += NF } END { print n }`, input)
}

func BenchmarkWordFrequency(b *testing.B) {
	input := strings.Repeat("the cat sat on the mat with the hat\n", 2000)
	benchRun(b, `{ for (i = 1; i <= NF; i++) f[$i]++ } END { print length(f) }`, input)
}

func BenchmarkRegexMatch(b *testing.B) {
	input := strings.Repeat("error code 42 in module alpha\nall systems nominal\n", 1000)
	benchRun(b, `/error/ { n++ } END { print n }`, input)
}

func BenchmarkArithmetic(b *testing.B) {
	input := strings.Repeat("1.5 2.5 3.5\n", 2000)
	benchRun(b, `{ s += $1 * $2 + $3 / 2 } END { printf "%.1f\n", s }`, input)
}

// The book benchmarks run on 32 KiB of textgen prose, the input the
// workloads give gawk. Prose has a far larger vocabulary than the repeated
// lines above, so array keys and field scans cost what they do in the
// simulator.
var benchBook = string(textgen.Book(1, 32<<10)[:32<<10])

func BenchmarkFieldSplitBook(b *testing.B) {
	benchRun(b, `{ n += NF } END { print n }`, benchBook)
}

func BenchmarkWordFrequencyBook(b *testing.B) {
	benchRun(b, perfbenchGawkProg, benchBook)
}

func BenchmarkRegexMatchBook(b *testing.B) {
	benchRun(b, `/ the [a-z]+ of / { n++ } END { print n }`, benchBook)
}
