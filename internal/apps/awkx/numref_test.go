package awkx

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzNumPrefix checks the single-pass scanner against the strconv probing
// reference. looksNumeric must classify every string the same. numPrefix
// must give the same number, bit for bit, except that a constant which
// overflows float64 converts to ±Inf, where the reference falls back to
// the longest prefix that does not overflow.
func FuzzNumPrefix(f *testing.F) {
	for _, s := range []string{
		"", "42", "  -3.5e2kg", ".5", "1.", ".", "1e", "1e+", "7e-3x", "+.5e1",
		"1e400", "-1e400", "1e-400", "0x1p3", "0x1.8p1", "0x10", "0x_1p-2", "1_000",
		"1__0", "1_.5", "inf", "-Infinity", "nan", "+nan", "infin", "\v12\u00a0",
		strings.Repeat("9", 70), "0." + strings.Repeat("0", 70) + "1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := looksNumeric(s), refLooksNumeric(s); got != want {
			t.Errorf("looksNumeric(%q) = %v, want %v", s, got, want)
		}
		got, want := numPrefix(s), refNumPrefix(s)
		if math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want) {
			return
		}
		if math.IsInf(got, 0) && !math.IsInf(want, 0) {
			// The overflow fix: the scanned constant must really overflow.
			t2 := strings.TrimLeft(s, " \t\n\r")
			if len(t2) > 64 {
				t2 = t2[:64]
			}
			if _, err := strconv.ParseFloat(t2[:numberLen(t2)], 64); errors.Is(err, strconv.ErrRange) {
				return
			}
		}
		t.Errorf("numPrefix(%q) = %v, want %v", s, got, want)
	})
}

// The original strconv-probing conversions, kept as the reference the
// single-pass scanner is checked against.

// refLooksNumeric reports whether s is a valid numeric constant with optional
// surrounding blanks.
func refLooksNumeric(s string) bool {
	t := strings.TrimSpace(s)
	if t == "" {
		return false
	}
	_, err := strconv.ParseFloat(t, 64)
	return err == nil
}

// refNumPrefix parses the longest numeric prefix of s (awk's string→number
// rule: "3.5kg" is 3.5, "abc" is 0).
func refNumPrefix(s string) float64 {
	t := strings.TrimLeft(s, " \t\n\r")
	// Numbers are short; cap the prefix scan.
	if len(t) > 64 {
		t = t[:64]
	}
	end := 0
	for i := 1; i <= len(t); i++ {
		v, err := strconv.ParseFloat(t[:i], 64)
		// Go accepts "inf"/"nan" spellings; awk's number syntax does not.
		if err == nil && !math.IsInf(v, 0) && !math.IsNaN(v) {
			end = i
		}
	}
	if end == 0 {
		return 0
	}
	f, _ := strconv.ParseFloat(t[:end], 64)
	return f
}
