// Package translate implements the paper's polygen query translation
// pipeline (§III, Figure 2): the Syntax Analyzer that turns a polygen
// algebraic expression into a Polygen Operation Matrix (Table 1), the
// two-pass Polygen Operation Interpreter of Figures 3 and 4 that expands it
// into an Intermediate Operation Matrix (Tables 2 and 3) using the polygen
// schema's attribute mappings, the Query Optimizer, and the SQL front end
// that compiles the polygen SQL subset into algebraic expressions.
//
// The Query Optimizer — a component the paper names but leaves "beyond the
// scope" — is a cost-based, source-tag-aware plan rewriter for federations
// (optimize.go, reorder.go). Optimize applies the statistics-free passes
// (common-subexpression and dead-row elimination); OptimizeWithOptions
// adds, under Options carrying the schema, per-LQP statistics
// (internal/stats) and capability probes:
//
//   - predicate/projection pushdown: PQP-resident Select/Restrict/Project
//     rows fuse into the LQP-resident row feeding them, becoming
//     pushed-down subplans (Row.Pushed, executed as lqp.Plans) so only
//     filtered, narrowed rows cross the wide-area boundary;
//   - projection narrowing: retrievals shrink to the columns the plan
//     demands, never dropping condition (tag-bearing) columns;
//   - the join build-side swap: the bottom join of a left-deep equi-join
//     chain swaps its operands when a key-aware cost model favours it,
//     verified by simulating both layouts.
//
// Every rewrite is identity-preserving at the cell level — data, origin
// tags and intermediate tags. Rewrites the polygen tag calculus does not
// license (selections through Merge or Join, join orders that change the
// intermediate-tag audit trail) are refused by construction; see the
// comments in optimize.go and reorder.go, and docs/ARCHITECTURE.md for the
// full argument.
package translate

import (
	"fmt"
	"strings"

	"repro/internal/rel"
)

// Expr is a polygen algebraic expression.
type Expr interface {
	// String renders the expression in the paper's notation, e.g.
	// ( PALUMNUS [DEGREE = "MBA"] ) [AID# = AID#] PCAREER.
	String() string
	isExpr()
}

// SchemeRef names a polygen scheme.
type SchemeRef struct {
	Name string
}

func (e *SchemeRef) isExpr()        {}
func (e *SchemeRef) String() string { return e.Name }

// SelectExpr is p[x θ constant].
type SelectExpr struct {
	In    Expr
	Attr  string
	Theta rel.Theta
	Const rel.Value
}

func (e *SelectExpr) isExpr() {}
func (e *SelectExpr) String() string {
	return fmt.Sprintf("(%s [%s %s %s])", e.In, e.Attr, e.Theta, formatConst(e.Const))
}

// RestrictExpr is p[x θ y] between two attributes of one expression.
type RestrictExpr struct {
	In    Expr
	X     string
	Theta rel.Theta
	Y     string
}

func (e *RestrictExpr) isExpr() {}
func (e *RestrictExpr) String() string {
	return fmt.Sprintf("(%s [%s %s %s])", e.In, e.X, e.Theta, e.Y)
}

// JoinExpr is p1[x θ y]p2.
type JoinExpr struct {
	L     Expr
	X     string
	Theta rel.Theta
	Y     string
	R     Expr
}

func (e *JoinExpr) isExpr() {}
func (e *JoinExpr) String() string {
	return fmt.Sprintf("(%s [%s %s %s] %s)", e.L, e.X, e.Theta, e.Y, e.R)
}

// ProjectExpr is p[x1, ..., xn].
type ProjectExpr struct {
	In    Expr
	Attrs []string
}

func (e *ProjectExpr) isExpr() {}
func (e *ProjectExpr) String() string {
	return fmt.Sprintf("(%s [%s])", e.In, strings.Join(e.Attrs, ", "))
}

// BinaryExpr covers the set-level operators the algebra inherits from the
// relational model: UNION, MINUS (Difference), INTERSECT and TIMES
// (Cartesian product). The paper's example uses none, but the polygen
// algebra defines them and the executor implements their tag semantics.
type BinaryExpr struct {
	Op OpName // OpUnion, OpDifference, OpIntersect, OpProduct
	L  Expr
	R  Expr
}

func (e *BinaryExpr) isExpr() {}
func (e *BinaryExpr) String() string {
	var kw string
	switch e.Op {
	case OpUnion:
		kw = "UNION"
	case OpDifference:
		kw = "MINUS"
	case OpIntersect:
		kw = "INTERSECT"
	case OpProduct:
		kw = "TIMES"
	default:
		kw = string(e.Op)
	}
	return fmt.Sprintf("(%s %s %s)", e.L, kw, e.R)
}

func formatConst(v rel.Value) string {
	if v.Kind() == rel.KindString {
		return fmt.Sprintf("%q", v.Str())
	}
	return v.String()
}
