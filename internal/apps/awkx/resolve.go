package awkx

import "sort"

// Variable slots. After parsing, resolve binds every variable reference to
// a slot, so the interpreter indexes slices instead of hashing names.
// A global's slot indexes interp.globals and interp.arrays; a function
// parameter's indexes the running call's stretch of interp.locals and
// interp.localArrs. A name can hold a scalar and an array at once, in the
// same slot of the two slices. The special variables take the first global
// slots, in this order.
const (
	slotNR = iota
	slotNF
	slotFS
	slotOFS
	slotORS
	slotSUBSEP
	slotRSTART
	slotRLENGTH
	slotFILENAME
	numSpecials
)

var specialNames = [numSpecials]string{"NR", "NF", "FS", "OFS", "ORS", "SUBSEP", "RSTART", "RLENGTH", "FILENAME"}

// resolve assigns slots to every variable reference in prog and binds each
// call to its function.
func resolve(prog *program) {
	prog.globals = make(map[string]int, numSpecials)
	for slot, name := range specialNames {
		prog.globals[name] = slot
	}
	r := &resolver{prog: prog}
	for _, b := range prog.begins {
		r.stmt(b)
	}
	for _, ru := range prog.rules {
		r.expr(ru.pattern)
		r.stmt(ru.action)
	}
	for _, b := range prog.ends {
		r.stmt(b)
	}
	names := make([]string, 0, len(prog.funcs))
	for name := range prog.funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fd := prog.funcs[name]
		r.params = make(map[string]int, len(fd.params))
		for i, p := range fd.params {
			r.params[p] = i
		}
		r.stmt(fd.body)
	}
}

type resolver struct {
	prog   *program
	params map[string]int // the enclosing function's parameters
}

// ref binds v. Parameters shadow globals, except that NR and NF always
// denote the record counters.
func (r *resolver) ref(v *varRef) {
	if i, ok := r.params[v.name]; ok && v.name != "NR" && v.name != "NF" {
		v.local, v.slot = true, i
		return
	}
	slot, ok := r.prog.globals[v.name]
	if !ok {
		slot = len(r.prog.globals)
		r.prog.globals[v.name] = slot
	}
	v.slot = slot
}

func (r *resolver) stmt(s stmt) {
	switch s := s.(type) {
	case *stmtBlock:
		for _, st := range s.stmts {
			r.stmt(st)
		}
	case *exprStmt:
		r.expr(s.e)
	case *printStmt:
		r.exprs(s.args)
		r.expr(s.dest)
	case *printfStmt:
		r.exprs(s.args)
		r.expr(s.dest)
	case *ifStmt:
		r.expr(s.cond)
		r.stmt(s.then)
		r.stmt(s.elze)
	case *whileStmt:
		r.expr(s.cond)
		r.stmt(s.body)
	case *forStmt:
		r.stmt(s.init)
		r.expr(s.cond)
		r.stmt(s.post)
		r.stmt(s.body)
	case *forInStmt:
		r.ref(s.v)
		r.ref(s.arr)
		r.stmt(s.body)
	case *exitStmt:
		r.expr(s.code)
	case *returnStmt:
		r.expr(s.val)
	case *deleteStmt:
		r.ref(s.arr)
		r.exprs(s.index)
	}
}

func (r *resolver) exprs(es []expr) {
	for _, e := range es {
		r.expr(e)
	}
}

func (r *resolver) expr(e expr) {
	switch e := e.(type) {
	case *varRef:
		r.ref(e)
	case *fieldRef:
		r.expr(e.idx)
	case *indexRef:
		r.ref(e.arr)
		r.exprs(e.index)
	case *assign:
		r.expr(e.target)
		r.expr(e.val)
	case *incDec:
		r.expr(e.target)
	case *binary:
		r.expr(e.l)
		r.expr(e.r)
	case *unary:
		r.expr(e.e)
	case *ternary:
		r.expr(e.cond)
		r.expr(e.a)
		r.expr(e.b)
	case *matchExpr:
		r.expr(e.l)
		r.expr(e.re)
	case *inExpr:
		r.exprs(e.index)
		r.ref(e.arr)
	case *call:
		e.fn = r.prog.funcs[e.name]
		r.exprs(e.args)
	case *builtinCall:
		r.exprs(e.args)
	case *groupExpr:
		r.expr(e.e)
	case *getlineExpr:
		r.expr(e.target)
		r.expr(e.src)
	}
}
