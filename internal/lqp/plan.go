package lqp

import (
	"fmt"
	"strings"

	"repro/internal/rel"
	"repro/internal/relalg"
)

// Plan is a pushed-down local subplan: a pipeline of local operations
// evaluated entirely inside one LQP. Ops[0] is the base operation and names
// the local relation; every later op applies to the running result (its
// Relation field is ignored). The polygen Query Optimizer emits plans when
// it fuses PQP-resident Select/Restrict/Project rows into the local row
// that feeds them, so only the filtered, narrowed rows cross the wide-area
// boundary.
type Plan struct {
	Ops []Op
}

// PlanOf builds a plan from a base operation and trailing steps.
func PlanOf(base Op, steps ...Op) Plan {
	return Plan{Ops: append([]Op{base}, steps...)}
}

// Base returns the base operation (the first op).
func (p Plan) Base() Op {
	if len(p.Ops) == 0 {
		return Op{}
	}
	return p.Ops[0]
}

// Steps returns the pushed-down steps beyond the base operation.
func (p Plan) Steps() []Op {
	if len(p.Ops) <= 1 {
		return nil
	}
	return p.Ops[1:]
}

// Relation returns the base relation name.
func (p Plan) Relation() string { return p.Base().Relation }

// Validate checks the plan shape: a non-empty pipeline whose base op names
// a relation.
func (p Plan) Validate() error {
	if len(p.Ops) == 0 {
		return fmt.Errorf("lqp: empty plan")
	}
	if p.Ops[0].Relation == "" {
		return fmt.Errorf("lqp: plan base op names no relation")
	}
	return nil
}

// Mediates reports whether any pushed step beyond the base operation is a
// Select or Restrict. The PQP needs this to reconstruct the paper's
// intermediate tags exactly: a PQP-resident Select/Restrict adds the operand
// cells' origin — which for a freshly retrieved relation is uniformly the
// executing LQP — to every cell's intermediate set, so a fused filter step
// must reintroduce {LQP} when the result is tagged. The base operation does
// not mediate: pass one of the interpreter already executes it locally, and
// Tables 4–9 tag its result with empty intermediate sets.
func (p Plan) Mediates() bool {
	for _, op := range p.Steps() {
		if op.Kind == OpSelect || op.Kind == OpRestrict {
			return true
		}
	}
	return false
}

// String renders the pipeline in the paper's algebraic notation, e.g.
// ALUMNUS[DEG = "MBA"][SAL > 50000][ANAME, DEG].
func (p Plan) String() string {
	if len(p.Ops) == 0 {
		return "(empty plan)"
	}
	return p.Ops[0].String() + StepsString(p.Steps())
}

// StepsString renders a sequence of pipeline steps as chained bracket
// suffixes — each op's bracket part with the relation name stripped.
// Shared by Plan.String and the translate matrix renderer, so fused rows
// and pushed plans print identically.
func StepsString(steps []Op) string {
	var b strings.Builder
	for _, op := range steps {
		s := op.String()
		if i := strings.IndexByte(s, '['); i >= 0 {
			s = s[i:]
		} else {
			s = "[" + s + "]"
		}
		b.WriteString(s)
	}
	return b.String()
}

// PlanRunner is the pushdown capability of an LQP: it evaluates a whole
// local subplan and returns only the final, filtered relation. Local and
// wire.Client implement it; LQPs without it make the optimizer keep the
// fused operations PQP-side (the translator's CanPush hook).
type PlanRunner interface {
	// ExecutePlan evaluates the pipeline and returns the materialized result.
	ExecutePlan(p Plan) (*rel.Relation, error)
}

// PlanStreamer is the streaming flavor of the pushdown capability: the
// subplan's result arrives as a cursor of row batches, so wide-area transfer
// is charged only for rows that survive the pushed filters.
type PlanStreamer interface {
	OpenPlan(p Plan) (rel.Cursor, error)
}

// CanPush reports whether l accepts pushed-down subplans.
func CanPush(l LQP) bool {
	_, ok := l.(PlanRunner)
	return ok
}

// ApplyOp evaluates one local operation against an already-materialized
// relation with the untagged relational algebra — the shared evaluation of
// plan steps in Local, wire.Server, and the PQP-side fallback.
func ApplyOp(r *rel.Relation, op Op) (*rel.Relation, error) {
	switch op.Kind {
	case OpRetrieve:
		return r, nil
	case OpSelect:
		return relalg.Select(r, op.Attr, op.Theta, op.Const)
	case OpRestrict:
		return relalg.Restrict(r, op.Attr, op.Theta, op.Attr2)
	case OpProject:
		return relalg.Project(r, op.Attrs)
	default:
		return nil, fmt.Errorf("lqp: unsupported plan step %v", op.Kind)
	}
}

// ExecutePlanOn evaluates a plan against any LQP: PlanRunners evaluate it
// natively; for the rest the base operation executes remotely and the steps
// apply PQP-side — the answer is identical, only the transfer savings are
// lost. (The optimizer never fuses steps for LQPs without the capability;
// the fallback keeps hand-built plans executable.)
func ExecutePlanOn(l LQP, p Plan) (*rel.Relation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if pr, ok := l.(PlanRunner); ok {
		return pr.ExecutePlan(p)
	}
	r, err := l.Execute(p.Base())
	if err != nil {
		return nil, err
	}
	return applySteps(r, p.Steps())
}

// OpenPlanOn opens a plan as a streaming cursor against any LQP, with the
// same capability-or-fallback behavior as ExecutePlanOn.
func OpenPlanOn(l LQP, p Plan) (rel.Cursor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if ps, ok := l.(PlanStreamer); ok {
		return ps.OpenPlan(p)
	}
	r, err := ExecutePlanOn(l, p)
	if err != nil {
		return nil, err
	}
	return rel.CursorOf(r), nil
}

func applySteps(r *rel.Relation, steps []Op) (*rel.Relation, error) {
	var err error
	for _, op := range steps {
		if r, err = ApplyOp(r, op); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// ExecutePlan implements PlanRunner: one snapshot of the base relation, then
// the pipeline folds in-process.
func (l *Local) ExecutePlan(p Plan) (*rel.Relation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r, err := l.Execute(p.Base())
	if err != nil {
		return nil, err
	}
	return applySteps(r, p.Steps())
}

// OpenPlan implements PlanStreamer. Select and Restrict steps compose as
// filter cursors over the base stream — fully pipelined, no copy; a Project
// step is a blocking point (duplicate elimination), so the prefix up to it
// materializes and the remainder streams off the projected result.
func (l *Local) OpenPlan(p Plan) (rel.Cursor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cur, err := l.Open(p.Base())
	if err != nil {
		return nil, err
	}
	for i, op := range p.Steps() {
		switch op.Kind {
		case OpSelect, OpRestrict:
			cur, err = filterStep(cur, op)
		case OpProject:
			// Blocking: drain what we have, project, stream the rest of the
			// pipeline off the materialized result.
			var r *rel.Relation
			if r, err = rel.Drain(cur); err == nil {
				if r, err = applySteps(r, p.Steps()[i:]); err == nil {
					return rel.CursorOf(r), nil
				}
			}
		default:
			cur.Close()
			return nil, fmt.Errorf("lqp %s: unsupported plan step %v", l.Name(), op.Kind)
		}
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// filterStep wraps cur with one Select/Restrict predicate.
func filterStep(cur rel.Cursor, op Op) (rel.Cursor, error) {
	schema := cur.Schema()
	ci := schema.Index(op.Attr)
	if ci < 0 {
		cur.Close()
		return nil, fmt.Errorf("lqp: no attribute %q in pushed plan step", op.Attr)
	}
	if op.Kind == OpSelect {
		theta, constant := op.Theta, op.Const
		return rel.FilterCursor(cur, func(t rel.Tuple) bool {
			return theta.Eval(t[ci], constant)
		}), nil
	}
	yi := schema.Index(op.Attr2)
	if yi < 0 {
		cur.Close()
		return nil, fmt.Errorf("lqp: no attribute %q in pushed plan step", op.Attr2)
	}
	theta := op.Theta
	return rel.FilterCursor(cur, func(t rel.Tuple) bool {
		return theta.Eval(t[ci], t[yi])
	}), nil
}

// RelationStats summarizes one local relation for the federated optimizer:
// cardinality drives the join build-side choice, the column list drives
// projection narrowing and plan simulation.
type RelationStats struct {
	Name    string
	Rows    int
	Columns []string
	Key     []string
}

// StatsProvider is the statistics capability of an LQP: per-relation
// cardinalities and column lists, collected by internal/stats into the
// cost-based optimizer's catalog. Local and wire.Client implement it.
type StatsProvider interface {
	Stats() ([]RelationStats, error)
}

// Stats implements StatsProvider from the catalog's metadata.
func (l *Local) Stats() ([]RelationStats, error) {
	infos := l.db.Stats()
	out := make([]RelationStats, len(infos))
	for i, in := range infos {
		out[i] = RelationStats{Name: in.Name, Rows: in.Rows, Columns: in.Columns, Key: in.Key}
	}
	return out, nil
}

// StatsOf collects relation statistics from any LQP, or reports that the
// LQP does not expose them.
func StatsOf(l LQP) ([]RelationStats, bool, error) {
	sp, ok := l.(StatsProvider)
	if !ok {
		return nil, false, nil
	}
	st, err := sp.Stats()
	return st, true, err
}

var (
	_ PlanRunner    = (*Local)(nil)
	_ PlanStreamer  = (*Local)(nil)
	_ StatsProvider = (*Local)(nil)
)
