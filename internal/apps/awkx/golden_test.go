package awkx

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"compstor/internal/apps"
	"compstor/internal/minfs"
	"compstor/internal/sim"
	"compstor/internal/textgen"
)

// goldenCase is one (program, input) pair of the golden corpus. Inputs
// longer than a line or two come from textgen, so the corpus file holds
// only the outputs.
type goldenCase struct {
	name  string
	args  []string          // CLI flags before the program text
	prog  string            //
	input string            // stdin
	files map[string]string // files getline may read; nil = no filesystem
}

// goldenOutput is what the corpus records for one case.
type goldenOutput struct {
	Out  string `json:"out"`
	Code int    `json:"code"`
}

const goldenFile = "testdata/golden.json"

// perfbenchGawkProg is the distinct-word count perfbench's serve-mix
// workload runs.
const perfbenchGawkProg = `{ for (i = 1; i <= NF; i++) c[$i]++ } END { n = 0; for (w in c) n++; print n }`

func goldenCases() []goldenCase {
	book := string(textgen.Book(3, 32<<10))
	short := book[:2<<10]
	bench := func(line string, n int) string { return strings.Repeat(line, n) }
	numbers := "10 9 1e2\n-3.5 +2 .5\n 0x10 16 1e400\nabc abd 5.\n1_000 0x1p3 inf\n" +
		"nan -Infinity 1e-400\n3rd 12kg 7e+\n0 -0 +.5e1\n"
	return []goldenCase{
		// The four bench_test.go programs on their bench inputs and on prose.
		{name: "bench-fieldsplit", prog: `{ n += NF } END { print n }`,
			input: bench("alpha beta gamma delta epsilon zeta\n", 2000)},
		{name: "bench-fieldsplit-book", prog: `{ n += NF } END { print n }`, input: book},
		{name: "bench-wordfreq", prog: `{ for (i = 1; i <= NF; i++) f[$i]++ } END { print length(f) }`,
			input: bench("the cat sat on the mat with the hat\n", 2000)},
		{name: "bench-wordfreq-book", prog: `{ for (i = 1; i <= NF; i++) f[$i]++ } END { print length(f), f["the"], f["The"], f["of"] }`,
			input: book},
		{name: "bench-regex", prog: `/error/ { n++ } END { print n }`,
			input: bench("error code 42 in module alpha\nall systems nominal\n", 1000)},
		{name: "bench-regex-book", prog: `/ the [a-z]+ of / { n++ } END { print n }`, input: book},
		{name: "bench-arith", prog: `{ s += $1 * $2 + $3 / 2 } END { printf "%.1f\n", s }`,
			input: bench("1.5 2.5 3.5\n", 2000)},
		{name: "bench-arith-book", prog: `{ s += NF * length($1) / 3 } END { printf "%.4f %d\n", s, NR }`, input: book},

		// perfbench's gawk program, on prose and on degenerate inputs.
		{name: "perfbench-gawk", prog: perfbenchGawkProg, input: book},
		{name: "perfbench-gawk-1B", prog: perfbenchGawkProg, input: book[:1]},
		{name: "perfbench-gawk-empty", prog: perfbenchGawkProg, input: ""},
		{name: "word-max", prog: `{ for (i = 1; i <= NF; i++) c[tolower($i)]++ }
			END { for (w in c) if (c[w] > m || (c[w] == m && w < mw)) { m = c[w]; mw = w }; print mw, m }`, input: book},

		// Multi-subscript keys and SUBSEP.
		{name: "subsep-default", prog: `{ a[$1, NF]++ }
			END { for (k in a) { split(k, p, SUBSEP); s += length(p[1]) * p[2] * a[k] }; print s, length(a), (("CHAPTER" SUBSEP 2) in a) }`,
			input: book},
		{name: "subsep-custom", prog: `BEGIN { SUBSEP = ":" } { k[NR % 3, $1] = NR }
			END { print ((1 SUBSEP "a") in k), ((2 ":" "a") in k), k[0, "c"], length(k); for (x in k) if (x == "2:b") print "found", k[x]; delete k[1, "a"]; print length(k) }`,
			input: "a 1\nb 2\nc 3\na 4\n"},
		{name: "subsep-numeric", prog: `BEGIN { m[1, 2.5] = "x"; m[1 + 0, 5 / 2] = m[1, 2.5] "y"; SUBSEP = "-"; m[3, 4] = "z"; for (k in m) n++; print n, m[1 "\034" 2.5], m["3-4"] }`},

		// Functions: array params, scalar locals, recursion, globals.
		{name: "func-arrays-locals", prog: `
			function bump(arr, key,    tmp, i) { tmp = key "_x"; arr[tmp]++; for (i = 0; i < 2; i++) arr[key]++; return arr[tmp] }
			function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2) }
			function fill(dst, n,   j) { for (j = 1; j <= n; j++) dst[j] = j * j; return n }
			function total(arr,   k, s) { for (k in arr) s += arr[k]; return s }
			function g(x) { x = x * 2; glob = x; return x }
			{ last = bump(cnt, $1) }
			END { print last, cnt["a"], cnt["a_x"], length(cnt), fib(15); fill(sq, 5); print sq[3], length(sq), total(sq), "[" tmp i key "]"; y = 4; print g(y), y, glob }`,
			input: "a 1\nb 2\na 3\n"},
		{name: "func-arrays-existing", prog: `
			function bump(arr, key,    tmp) { tmp = key "_x"; arr[tmp]++; arr[key] += 2; return arr[tmp] }
			function fill(dst, n,   j) { for (j = 1; j <= n; j++) dst[j] = j * j; return n }
			function inner(a) { a["in"] = length(a); return outer2(a) }
			function outer2(b) { b["out"]++; return length(b) }
			BEGIN { cnt["init"] = 0; sq[0] = 0 }
			{ last = bump(cnt, $1) }
			END { print last, cnt["a"], cnt["a_x"], length(cnt); fill(sq, 5); print sq[3], length(sq), inner(sq), sq["in"], sq["out"] }`,
			input: "a 1\nb 2\na 3\n"},
		{name: "func-book", prog: `
			function longest(s,   n, i, best) { n = split(s, w, " "); for (i = 1; i <= n; i++) if (length(w[i]) > length(best)) best = w[i]; return best }
			{ l = longest($0); if (length(l) > length(L)) L = l } END { print L, length(w) }`, input: book},

		// NF assignment and record rebuilding.
		{name: "nf-assign", prog: `{ NF = 2; print; $5 = "e"; print; print NF; NF = 7; print; $0 = "p q"; print NF, $2 }`,
			input: "a b c d\nx\n"},
		{name: "nf-assign-ofs", prog: `BEGIN { OFS = "-" } { $1 = $1; print; NF--; print; $(NF + 2) = "z"; print }`,
			input: "one two three\n"},
		{name: "field-rebuild-book", prog: `BEGIN { OFS = "|"; ORS = "~\n" } NF > 3 { $2 = toupper($2); NF = 4; print }`, input: short},

		// getline from a file.
		{name: "getline", prog: `BEGIN {
				while ((getline line < "aux.txt") > 0) { n++; s = s "|" line }
				print n, s
				while ((getline < "nums.txt") > 0) t += $2
				print t, NF, $0, NR
				print (getline x < "missing.txt")
			}`,
			files: map[string]string{"aux.txt": "one\ntwo three\n", "nums.txt": "a 1.5\nb 2\nc x\n"}},
		{name: "getline-main", prog: `{ if ((getline l < "aux.txt") > 0) print NR, $1, l; else print NR, $1, "eof" }`,
			input: "p\nq\nr\n", files: map[string]string{"aux.txt": "first\nsecond\n"}},

		// printf and number formatting.
		{name: "printf", prog: `{ printf "%-6s|%6.2f|%d|%x|%o|%e|%c|%5s|%-5d|%%|%s|%i|%u\n", $1, $2, $2, $3, $3, $2, $1, $3, $3, $4, $2, $3 }`,
			input: "abc 3.14159 255 tail\nz -2.5 8\n"},
		{name: "printf-star", prog: `BEGIN { printf "%*d|%-*s|%.*f|%c%c|%G|%E\n", 5, 42, 4, "ab", 2, 3.14159, 65, "hi", 1e-10, 12345.678 }`},
		{name: "number-format", prog: `{ print $1 / 3, $1 * 1e20, int($1 / 7), -$1, $1 ".", $1 % 7, 2 ^ 0.5, 1e6, 1e16, 100000000000000000000, 0.1 + 0.2, $1 / 0.5 }`,
			input: "10\n-22.5\n3\n"},
		{name: "strnum-compare", prog: `{ for (i = 1; i <= NF; i++) printf "%s:%d%d%d ", $i, ($i < 5), ($i == $i + 0), ($i "" < "5"); print "" }`,
			input: numbers},
		{name: "strnum-arith", prog: `{ for (i = 1; i <= NF; i++) if ($i !~ /e4/) printf "%s ", $i + 0; print "" }`,
			input: numbers},
		{name: "string-to-number", prog: `BEGIN { print "3" + "4", "3.5x" + 1, "x" + 1, " 12 " * 2, "1e3" + 0, ".5." + 0, "-" + 1, "+7" - 0, "0x1A" + 0, "1e+" + 0, "1.5e-3" * 1000 }`},

		// -v, -F and FS settings.
		{name: "cli-F-v", args: []string{"-F", ":", "-v", "x=5", "-v", "name=bob"},
			prog: `{ print $2 + x, name, NF, (x < 10) }`, input: "a:1:b\nc:2\n"},
		{name: "cli-F-regex", args: []string{"-F", "[,;]+"}, prog: `{ print NF, $2, $NF }`, input: "a,b;;c\n,x,\n"},
		{name: "cli-Fcomma", args: []string{"-F,"}, prog: `{ s += $3 } END { printf "%.2f %d\n", s, NR }`,
			input: "a,x,1.5\nb,y,2.25\nc,z,3\n"},
		{name: "fs-begin", prog: `BEGIN { FS = "," } { print $2; FS = ":" } END { print NF }`, input: "a,b:c\nd,e:f\n"},
		{name: "fs-tab-space", prog: `{ print NF, $1 }`, input: "  lead  trail  \n\tx\ty\n\n"},

		// Builtins, control flow and the remaining expression forms.
		{name: "builtins", prog: `{ n = split($0, p, /[aeiou]/); s = $0; c = gsub(/[aeiou]/, "<&>", s); t = $0; sub(/^[a-z]+/, "[\\&]", t)
			print n, p[1], c, s, t, index($0, "an"), substr($0, 2, 3), length(), toupper(substr($0, 1, 1)), match($0, /n+/), RSTART, RLENGTH }`,
			input: "banana\nkiwi\nxyz\n"},
		{name: "control", prog: `BEGIN { for (i = 0; i < 10; i++) { if (i == 2) continue; if (i == 7) break; s = s i }
				while (j < 3) j++; do k++; while (k < 0); print s, j, k, (1 < 2) ? "t" : "f", !0, !"", -"3" }
			/skip/ { next } { print NR ": " $0 } NR == 4 { exit 3 } END { print "end", NR }`,
			input: "a\nskip\nb\nc\nd\n"},
		{name: "in-delete-length", prog: `{ a[$1] = $2 } END { print ("x" in a), ("q" in a), length(a); delete a["x"]; print ("x" in a), length(a); delete a; print length(a) }`,
			input: "x 1\ny 2\nz 3\n"},
		{name: "match-ops", prog: `$0 ~ "^a" { print "re1", $0 } $2 !~ /[0-9]/ { print "re2", $0 }
			{ r = "c+"; if ($0 ~ r) print "dyn", $0 }`, input: "a 1\nb x\nccc 3\n"},
		{name: "uninit-concat", prog: `BEGIN { print x + 0, "[" x "]", length(x), (x == 0), (x == ""), y++ + ++y, 1 " " 2, -1 " " -2 }`},
		{name: "assign-forms", prog: `{ x = $1; x += 2; x -= 1; x *= 3; x /= 2; x %= 5; x ^= 2; $2 += 10; c[$1] += $2; n[NR] = x; y = z = NR; print x, $0, c[$1], n[NR], y, z, i++, ++i, i--, --i }`,
			input: "4 5\n7 1\n"},
		{name: "rand-srand", prog: `BEGIN { srand(7); a = rand(); b = rand(); srand(7); print (a == rand()), (b == rand()), (a != b), srand(3), srand() }`},
		{name: "exit-code", prog: `BEGIN { print "b" } { exit 4 } END { print "e", NR }`, input: "1\n2\n"},
	}
}

// runGolden runs one case, against a filesystem-backed context when the
// case names files.
func runGolden(t *testing.T, c goldenCase) goldenOutput {
	t.Helper()
	args := append(append([]string(nil), c.args...), c.prog)
	if c.files == nil {
		var out bytes.Buffer
		ctx := &apps.Context{Stdin: strings.NewReader(c.input), Stdout: &out, Stderr: &bytes.Buffer{}}
		code := apps.ExitCode(Gawk{}.Run(ctx, args))
		return goldenOutput{Out: out.String(), Code: code}
	}
	eng := sim.NewEngine()
	dev := &fsDevice{pageSize: 512, pages: 1 << 14, store: make(map[int64][]byte)}
	view := minfs.NewView(minfs.NewFS(512, 1<<14), dev)
	var res goldenOutput
	eng.Go("awk", func(p *sim.Proc) {
		for name, content := range c.files {
			if err := view.WriteFile(p, name, []byte(content)); err != nil {
				t.Error(err)
				return
			}
		}
		var out bytes.Buffer
		ctx := &apps.Context{Proc: p, FS: view, Stdin: strings.NewReader(c.input), Stdout: &out, Stderr: &bytes.Buffer{}}
		res.Code = apps.ExitCode(Gawk{}.Run(ctx, args))
		res.Out = out.String()
	})
	eng.Run()
	return res
}

// TestGoldenCorpus checks the interpreter against outputs recorded before
// its evaluation core was rewritten for speed: every case must still print
// the same bytes and exit with the same code. Only a deliberate semantic
// change edits testdata/golden.json.
func TestGoldenCorpus(t *testing.T) {
	got := make(map[string]goldenOutput)
	for _, c := range goldenCases() {
		got[c.name] = runGolden(t, c)
	}
	b, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenOutput
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("corpus has %d cases, %s has %d", len(got), goldenFile, len(want))
	}
	for _, c := range goldenCases() {
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: missing from %s", c.name, goldenFile)
			continue
		}
		if g := got[c.name]; g != w {
			t.Errorf("%s: got exit %d, output\n%q\nwant exit %d, output\n%q", c.name, g.Code, g.Out, w.Code, w.Out)
		}
	}
}
