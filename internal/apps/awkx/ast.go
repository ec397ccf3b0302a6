package awkx

// AST node definitions.

// program is a parsed AWK program.
type program struct {
	begins []*stmtBlock
	ends   []*stmtBlock
	rules  []rule
	funcs  map[string]*funcDef
	// globals maps each global variable's name to its slot (see resolve).
	globals map[string]int
}

// rule is one pattern-action item.
type rule struct {
	pattern expr // nil = match every record
	action  *stmtBlock
}

type funcDef struct {
	name   string
	params []string
	body   *stmtBlock
}

// Statements.

type stmt interface{ isStmt() }

type stmtBlock struct{ stmts []stmt }

type exprStmt struct{ e expr }

type printStmt struct {
	args []expr // empty = $0
	dest expr   // optional > "file" target
}

type printfStmt struct {
	args []expr
	dest expr
}

type ifStmt struct {
	cond       expr
	then, elze stmt
}

type whileStmt struct {
	cond expr
	body stmt
	post bool // do-while
}

type forStmt struct {
	init, post stmt
	cond       expr
	body       stmt
}

type forInStmt struct {
	v    *varRef
	arr  *varRef
	body stmt
}

type breakStmt struct{}
type continueStmt struct{}
type nextStmt struct{}
type exitStmt struct{ code expr }
type returnStmt struct{ val expr }
type deleteStmt struct {
	arr   *varRef
	index []expr // nil = delete whole array
}

func (*stmtBlock) isStmt()    {}
func (*exprStmt) isStmt()     {}
func (*printStmt) isStmt()    {}
func (*printfStmt) isStmt()   {}
func (*ifStmt) isStmt()       {}
func (*whileStmt) isStmt()    {}
func (*forStmt) isStmt()      {}
func (*forInStmt) isStmt()    {}
func (*breakStmt) isStmt()    {}
func (*continueStmt) isStmt() {}
func (*nextStmt) isStmt()     {}
func (*exitStmt) isStmt()     {}
func (*returnStmt) isStmt()   {}
func (*deleteStmt) isStmt()   {}

// Expressions.

type expr interface{ isExpr() }

type numLit struct{ v float64 }
type strLit struct{ v string }
type regexLit struct{ re *compiledRegex }

// varRef names a scalar or array variable. The resolve pass binds it to a
// slot: a function parameter's position when local, else a global slot.
type varRef struct {
	name  string
	local bool
	slot  int
}

type fieldRef struct{ idx expr }

type indexRef struct {
	arr   *varRef
	index []expr
}

type assign struct {
	op     string // "=", "+=", ...
	target expr   // varRef, fieldRef or indexRef
	val    expr
}

type incDec struct {
	op     string // "++" or "--"
	pre    bool
	target expr
}

type binary struct {
	op   string
	l, r expr
}

type unary struct {
	op string // "!" or "-" or "+"
	e  expr
}

type ternary struct {
	cond, a, b expr
}

type matchExpr struct {
	neg bool
	l   expr
	re  expr // regexLit or dynamic string
}

type inExpr struct {
	index []expr
	arr   *varRef
}

type call struct {
	name string
	args []expr
	fn   *funcDef // set by resolve; nil for an undefined function
}

type builtinCall struct {
	name string
	args []expr
}

type groupExpr struct{ e expr }

// getlineExpr is `getline [lvalue] < src`: read one line from a file into
// the lvalue (or $0), yielding 1, 0 at EOF, or -1 on error.
type getlineExpr struct {
	target expr // nil = $0 (and NF/NR update)
	src    expr // file name expression
}

func (*numLit) isExpr()      {}
func (*strLit) isExpr()      {}
func (*regexLit) isExpr()    {}
func (*varRef) isExpr()      {}
func (*fieldRef) isExpr()    {}
func (*indexRef) isExpr()    {}
func (*assign) isExpr()      {}
func (*incDec) isExpr()      {}
func (*binary) isExpr()      {}
func (*unary) isExpr()       {}
func (*ternary) isExpr()     {}
func (*matchExpr) isExpr()   {}
func (*inExpr) isExpr()      {}
func (*call) isExpr()        {}
func (*builtinCall) isExpr() {}
func (*groupExpr) isExpr()   {}
func (*getlineExpr) isExpr() {}
