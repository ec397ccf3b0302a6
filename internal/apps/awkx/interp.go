package awkx

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
)

// Control-flow signals, carried as errors through the tree walk.
var (
	errBreak    = errors.New("awk: break outside loop")
	errContinue = errors.New("awk: continue outside loop")
	errNext     = errors.New("awk: next")
	// errReturn unwinds a function body; the value is in interp.retVal.
	errReturn = errors.New("awk: return outside function")
)

type exitSignal struct{ code int }

func (exitSignal) Error() string { return "awk: exit" }

// interp executes a parsed program.
type interp struct {
	prog    *program
	globals []value
	arrays  []map[string]value // nil until the array is first used

	// Function activations stack their parameters here; the running one
	// owns locals[base:] and localArrs[base:]. Array parameters alias the
	// caller's map; the others are local scalars and arrays.
	locals    []value
	localArrs []map[string]value
	base      int
	depth     int
	retVal    value

	record      string
	fields      []string
	fieldsValid bool
	recordValid bool

	nr int
	// The string values of FS, OFS, ORS and SUBSEP, or their defaults
	// while unassigned; setGlobal keeps them current.
	fs, ofs, ors, subsep string

	outBuf []byte // print's line buffer

	out      io.Writer
	openFile func(name string) (io.WriteCloser, error) // print > "file"
	files    map[string]io.WriteCloser
	openRead func(name string) (io.ReadCloser, error) // getline < "file"
	readers  map[string]*getlineReader

	rng     *rand.Rand // seeded with rngSeed on first use
	rngSeed int64

	reCache map[string]*compiledRegex
}

func newInterp(prog *program, out io.Writer) *interp {
	return &interp{
		prog:    prog,
		globals: make([]value, len(prog.globals)),
		arrays:  make([]map[string]value, len(prog.globals)),
		fs:      " ",
		ofs:     " ",
		ors:     "\n",
		subsep:  "\x1c",
		out:     out,
		files:   make(map[string]io.WriteCloser),
		readers: make(map[string]*getlineReader),
		reCache: make(map[string]*compiledRegex),
	}
}

// configure applies the command line's -F separator and -v assignments.
// Names the program never mentions are dropped, and -v cannot set NR or
// NF, which count the input.
func (in *interp) configure(fs string, assigns [][2]string) {
	if fs != "" {
		in.setGlobal(slotFS, str(fs))
	}
	for _, kv := range assigns {
		if slot, ok := in.prog.globals[kv[0]]; ok && slot != slotNR && slot != slotNF {
			in.setGlobal(slot, inputStr(kv[1]))
		}
	}
}

// getlineReader is one open `getline < file` source.
type getlineReader struct {
	c  io.Closer
	sc *bufio.Scanner
}

func (in *interp) closeFiles() {
	for _, f := range in.files {
		f.Close()
	}
	for _, r := range in.readers {
		r.c.Close()
	}
}

// Variables -----------------------------------------------------------------

func (in *interp) getVar(r *varRef) value {
	if r.local {
		return in.locals[in.base+r.slot]
	}
	switch r.slot {
	case slotNR:
		return num(float64(in.nr))
	case slotNF:
		in.ensureFields()
		return num(float64(len(in.fields)))
	}
	return in.globals[r.slot]
}

func (in *interp) setVar(r *varRef, v value) {
	if r.local {
		in.locals[in.base+r.slot] = v
		return
	}
	in.setGlobal(r.slot, v)
}

func (in *interp) setGlobal(slot int, v value) {
	switch slot {
	case slotNR:
		in.nr = int(v.Num())
		return
	case slotNF:
		in.ensureFields()
		n := int(v.Num())
		if n < 0 {
			n = 0
		}
		for len(in.fields) > n {
			in.fields = in.fields[:len(in.fields)-1]
		}
		for len(in.fields) < n {
			in.fields = append(in.fields, "")
		}
		in.recordValid = false
		return
	case slotFS:
		in.fs = v.Str()
	case slotOFS:
		in.ofs = v.Str()
	case slotORS:
		in.ors = v.Str()
	case slotSUBSEP:
		in.subsep = v.Str()
	}
	in.globals[slot] = v
}

// array returns the array r names, creating it on first use.
func (in *interp) array(r *varRef) map[string]value {
	a := &in.arrays[r.slot]
	if r.local {
		a = &in.localArrs[in.base+r.slot]
	}
	if *a == nil {
		*a = make(map[string]value)
	}
	return *a
}

// isArray reports whether r currently denotes an array.
func (in *interp) isArray(r *varRef) bool {
	if r.local {
		return in.localArrs[in.base+r.slot] != nil
	}
	return in.arrays[r.slot] != nil
}

// arrayKey evaluates a subscript list into an array key, joining several
// subscripts with SUBSEP.
func (in *interp) arrayKey(index []expr) (string, error) {
	if len(index) == 1 {
		return in.evalStr(index[0])
	}
	var b strings.Builder
	for i, e := range index {
		s, err := in.evalStr(e)
		if err != nil {
			return "", err
		}
		if i > 0 {
			b.WriteString(in.subsep)
		}
		b.WriteString(s)
	}
	return b.String(), nil
}

// Record and field handling --------------------------------------------------

func (in *interp) setRecord(line string) {
	in.record = line
	in.recordValid = true
	in.fieldsValid = false
}

func (in *interp) ensureFields() {
	if in.fieldsValid {
		return
	}
	in.ensureRecord()
	in.fields = in.splitFields(in.fields, in.record, in.fs)
	in.fieldsValid = true
}

// asciiSpace marks the bytes the default field separator splits on.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields splits s into fields under separator fs, reusing buf's
// storage.
func (in *interp) splitFields(buf []string, s, fs string) []string {
	dst := buf[:0]
	switch {
	case fs == " ":
		// Runs of blanks separate fields, as strings.Fields splits them.
		for i := 0; i < len(s); {
			if s[i] >= 0x80 {
				return append(buf[:0], strings.Fields(s)...)
			}
			if asciiSpace[s[i]] {
				i++
				continue
			}
			j := i + 1
			for j < len(s) && !asciiSpace[s[j]] && s[j] < 0x80 {
				j++
			}
			if j < len(s) && s[j] >= 0x80 {
				return append(buf[:0], strings.Fields(s)...)
			}
			dst = append(dst, s[i:j])
			i = j
		}
		return dst
	case len(fs) == 1:
		if s == "" {
			return dst
		}
		for {
			i := strings.IndexByte(s, fs[0])
			if i < 0 {
				return append(dst, s)
			}
			dst = append(dst, s[:i])
			s = s[i+1:]
		}
	default:
		re, err := in.regex(fs)
		if err != nil {
			return append(dst, strings.Split(s, fs)...)
		}
		if s == "" {
			return dst
		}
		rest := []byte(s)
		for {
			st, en, ok := re.re.FindIndex(rest)
			if !ok || en == st {
				return append(dst, string(rest))
			}
			dst = append(dst, string(rest[:st]))
			rest = rest[en:]
		}
	}
}

func (in *interp) ensureRecord() {
	if in.recordValid {
		return
	}
	in.record = strings.Join(in.fields, in.ofs)
	in.recordValid = true
}

func (in *interp) getField(i int) value { return inputStr(in.fieldStr(i)) }

// fieldStr returns the text of $i, "" when there is no such field.
func (in *interp) fieldStr(i int) string {
	if i == 0 {
		in.ensureRecord()
		return in.record
	}
	in.ensureFields()
	if i < 1 || i > len(in.fields) {
		return ""
	}
	return in.fields[i-1]
}

func (in *interp) setField(i int, v value) {
	if i == 0 {
		in.setRecord(v.Str())
		return
	}
	in.ensureFields()
	for len(in.fields) < i {
		in.fields = append(in.fields, "")
	}
	in.fields[i-1] = v.Str()
	in.recordValid = false
}

// regex compiles (with caching) a dynamic regex source.
func (in *interp) regex(src string) (*compiledRegex, error) {
	if re, ok := in.reCache[src]; ok {
		return re, nil
	}
	re, err := compileRegex(src)
	if err != nil {
		return nil, err
	}
	in.reCache[src] = re
	return re, nil
}

// Program driver --------------------------------------------------------------

// runError distinguishes runtime errors from control signals.
func runtimeErr(format string, args ...any) error {
	return fmt.Errorf("awk: %s", fmt.Sprintf(format, args...))
}

// Run executes BEGIN rules, the main loop over input records, and END
// rules, returning the exit code.
func (in *interp) Run(inputs []namedReader) (int, error) {
	defer in.closeFiles()
	exitCode := 0
	exited := false

	handle := func(err error) (stop bool, rerr error) {
		if err == nil {
			return false, nil
		}
		var ex exitSignal
		if errors.As(err, &ex) {
			exitCode = ex.code
			exited = true
			return true, nil
		}
		if errors.Is(err, errNext) {
			return false, nil
		}
		return true, err
	}

	for _, blk := range in.prog.begins {
		if stop, err := handle(in.execBlock(blk)); stop || err != nil {
			if err != nil {
				return 1, err
			}
			goto ends
		}
	}

	// Main loop (only when there are main rules or END blocks).
	if len(in.prog.rules) > 0 || len(in.prog.ends) > 0 {
		for _, input := range inputs {
			in.globals[slotFILENAME] = str(input.name)
			sc := bufio.NewScanner(input.r)
			sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
			for sc.Scan() {
				in.nr++
				in.setRecord(sc.Text())
				stop := false
				var err error
				for _, r := range in.prog.rules {
					matched, merr := in.matchPattern(r.pattern)
					if merr != nil {
						return 1, merr
					}
					if !matched {
						continue
					}
					aerr := in.execBlock(r.action)
					if errors.Is(aerr, errNext) {
						break // skip remaining rules for this record
					}
					if s, e := handle(aerr); s || e != nil {
						stop, err = s, e
						break
					}
					if exited {
						stop = true
						break
					}
				}
				if err != nil {
					return 1, err
				}
				if stop || exited {
					goto ends
				}
			}
			if err := sc.Err(); err != nil {
				return 1, runtimeErr("reading %s: %v", input.name, err)
			}
		}
	}

ends:
	// POSIX: exit in BEGIN or a main rule still runs END rules; exit inside
	// END terminates immediately.
	_ = exited
	for _, blk := range in.prog.ends {
		if err := in.execBlock(blk); err != nil {
			var ex exitSignal
			if errors.As(err, &ex) {
				return ex.code, nil
			}
			if errors.Is(err, errNext) {
				return 1, runtimeErr("next inside END")
			}
			return 1, err
		}
	}
	return exitCode, nil
}

// namedReader pairs an input stream with its FILENAME.
type namedReader struct {
	name string
	r    io.Reader
}

// matchPattern evaluates a rule pattern against the current record.
func (in *interp) matchPattern(pat expr) (bool, error) {
	if pat == nil {
		return true, nil
	}
	if re, ok := pat.(*regexLit); ok {
		in.ensureRecord()
		return re.re.re.MatchLine([]byte(in.record)), nil
	}
	v, err := in.eval(pat)
	if err != nil {
		return false, err
	}
	return v.Bool(), nil
}
