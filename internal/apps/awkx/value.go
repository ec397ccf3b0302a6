package awkx

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// value is an AWK scalar: dynamically string, number, or "strnum" (a string
// that came from input and compares numerically when it looks like a
// number).
type value struct {
	s      string
	n      float64
	isNum  bool
	strnum bool
}

func num(f float64) value { return value{n: f, isNum: true} }
func str(s string) value  { return value{s: s} }
func inputStr(s string) value {
	return value{s: s, strnum: looksNumeric(s)}
}

var uninitialized = value{}

// looksNumeric reports whether s is a valid numeric constant with optional
// surrounding blanks: anything strconv.ParseFloat accepts, including Go's
// inf/nan spellings, short of overflow. Most fields fail at their first
// byte without a call into strconv.
func looksNumeric(s string) bool {
	t := strings.TrimSpace(s)
	if t == "" {
		return false
	}
	if numberLen(t) == len(t) {
		// The syntax is valid, so only an overflow fails.
		_, err := strconv.ParseFloat(t, 64)
		return err == nil
	}
	return isInfNaN(t)
}

// isInfNaN reports whether t is one of strconv.ParseFloat's special
// spellings: an optionally signed "inf" or "infinity", or an unsigned
// "nan", in any case.
func isInfNaN(t string) bool {
	signed := t[0] == '+' || t[0] == '-'
	if signed {
		t = t[1:]
	}
	switch len(t) {
	case 3:
		return strings.EqualFold(t, "inf") || !signed && strings.EqualFold(t, "nan")
	case 8:
		return strings.EqualFold(t, "infinity")
	}
	return false
}

// Num converts following awk semantics: numeric prefix of the string, else 0.
func (v value) Num() float64 {
	if v.isNum {
		return v.n
	}
	return numPrefix(v.s)
}

// numPrefix parses the longest numeric prefix of s (awk's string→number
// rule: "3.5kg" is 3.5, "abc" is 0), scanning at most its first 64 bytes
// after leading blanks. A constant too large for a float64 is ±Inf.
func numPrefix(s string) float64 {
	t := strings.TrimLeft(s, " \t\n\r")
	if len(t) > 64 {
		t = t[:64]
	}
	n := numberLen(t)
	if n == 0 {
		return 0
	}
	f, _ := strconv.ParseFloat(t[:n], 64) // ±Inf on overflow
	return f
}

// numberLen returns the length of the longest prefix of s that is a number
// in strconv.ParseFloat's syntax, leaving out its inf/nan spellings, or 0
// if there is none. That syntax is an optional sign, then a decimal
// mantissa with an optional e exponent, or a 0x hexadecimal mantissa with
// a mandatory p exponent; an underscore may sit between two digits.
func numberLen(s string) int {
	i := 0
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	if n := hexNumberLen(s[i:]); n > 0 {
		return i + n
	}
	start, digits, dot := i, false, false
	for ; i < len(s); i++ {
		switch c := s[i]; {
		case isDigit(c):
			digits = true
		case c == '_' && i > start && isDigit(s[i-1]) && i+1 < len(s) && isDigit(s[i+1]):
		case c == '.' && !dot:
			dot = true
		default:
			goto mantissaDone
		}
	}
mantissaDone:
	if !digits {
		return 0
	}
	if n := exponentLen(s[i:], 'e'); n > 0 {
		return i + n
	}
	return i
}

// hexNumberLen is numberLen for an unsigned hexadecimal number, which is
// only complete with its p exponent.
func hexNumberLen(s string) int {
	if len(s) < 3 || s[0] != '0' || s[1]|0x20 != 'x' {
		return 0
	}
	i, digits, dot := 2, false, false
	for ; i < len(s); i++ {
		switch c := s[i]; {
		case isHexDigit(c):
			digits = true
		case c == '_' && (i == 2 || isHexDigit(s[i-1])) && i+1 < len(s) && isHexDigit(s[i+1]):
		case c == '.' && !dot:
			dot = true
		default:
			goto mantissaDone
		}
	}
mantissaDone:
	if !digits {
		return 0
	}
	if n := exponentLen(s[i:], 'p'); n > 0 {
		return i + n
	}
	return 0
}

// exponentLen returns the length of the exponent that s starts with:
// the marker (either case), an optional sign and decimal digits.
func exponentLen(s string, marker byte) int {
	if len(s) < 2 || s[0]|0x20 != marker {
		return 0
	}
	i := 1
	if s[i] == '+' || s[i] == '-' {
		i++
	}
	if i == len(s) || !isDigit(s[i]) {
		return 0
	}
	for i++; i < len(s); i++ {
		if !isDigit(s[i]) && !(s[i] == '_' && isDigit(s[i-1]) && i+1 < len(s) && isDigit(s[i+1])) {
			break
		}
	}
	return i
}

func isHexDigit(c byte) bool { return isDigit(c) || 'a' <= c|0x20 && c|0x20 <= 'f' }

// Str renders the value as awk would: integral numbers without decimals,
// others via CONVFMT (%.6g).
func (v value) Str() string {
	if !v.isNum {
		return v.s
	}
	return numToStr(v.n)
}

func numToStr(f float64) string {
	if math.IsInf(f, 0) {
		if f < 0 {
			return "-inf"
		}
		return "inf"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e16 {
		return strconv.FormatInt(int64(f), 10)
	}
	return fmt.Sprintf("%.6g", f)
}

// Bool follows awk truthiness: numbers by non-zero, strings by non-empty
// (strnums by numeric value).
func (v value) Bool() bool {
	if v.isNum {
		return v.n != 0
	}
	if v.strnum {
		return v.Num() != 0
	}
	return v.s != ""
}

// numericish reports whether a value participates in numeric comparison:
// true numbers, input strnums, and uninitialised values.
func numericish(v value) bool {
	return v.isNum || v.strnum || (v.s == "" && !v.isNum)
}

// numericCompare reports whether two values should compare numerically.
func numericCompare(a, b value) bool { return numericish(a) && numericish(b) }

// compare returns -1, 0, or 1.
func compare(a, b value) int {
	if numericCompare(a, b) {
		x, y := a.Num(), b.Num()
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	}
	return strings.Compare(a.Str(), b.Str())
}
