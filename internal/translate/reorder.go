package translate

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/lqp"
	"repro/internal/rel"
	"repro/internal/stats"
)

// This file is the join build-side choice of the Query Optimizer. core's
// hash join builds its index over the right operand, so for a left-deep
// chain of PQP equi-joins whose bottom-left leaf is estimated smaller than
// its bottom-right leaf, the pass swaps the bottom join's operands and the
// small relation becomes the build side.
//
// It rewrites nothing else, because the polygen tag calculus is
// OPERATIONAL: a join adds the origins of its two operand columns to the
// intermediate set of every cell of every surviving row, so any order in
// which a leaf enters the chain later leaves its cells without the
// mediators of the joins it skipped, and t(i) changes. The bottom swap is
// tag-exact by construction: both bottom leaves enter at the first join in
// either orientation, that join's mediators are the same two operand
// columns' origins, and the layout checks below make every later join
// resolve the same columns.
//
// A swap is admitted only when every chain leaf is LQP-resident, so each
// leaf's column list and cardinality come straight from the statistics
// catalog, and only after the pass SIMULATES the original and swapped chains over
// attribute lists (leaf schemas from the catalog, composite layouts from
// core.JoinLayout) and finds:
//
//   - identical coalesce partition: every output column merges exactly the
//     same set of leaf columns in both layouts (tag-set unions commute, and
//     with an exact instance resolver — Options.ExactResolver, required —
//     the coalesced datum is the same value regardless of operand order);
//   - identical resolution of every attribute referenced above the chain
//     (later selections, restrictions and the terminal projection), by
//     provenance, name and polygen annotation;
//   - no simulated layout needs join-column disambiguation (renamed
//     duplicate columns depend on runtime relation names the simulation
//     cannot know);
//   - the chain feeds, possibly through single-consumer PQP selections and
//     restrictions, a terminal Project, which pins the visible column order
//     in both layouts;
//   - a lower estimated chain cost.
func reorderJoinChains(m *Matrix, opts Options) {
	// Each swap strictly lowers the cost estimate; rescan after each one.
	for rounds := 0; rounds < len(m.Rows); rounds++ {
		if !reorderOneChain(m, opts) {
			return
		}
	}
}

func reorderOneChain(m *Matrix, opts Options) bool {
	s := newPlanState(m)
	for i := range m.Rows {
		if !eligibleJoin(m.Rows[i]) {
			continue
		}
		// Chain bottom: an eligible join whose left operand is not itself an
		// eligible single-consumer join.
		if pi, ok := s.producer[m.Rows[i].LHR.Reg]; ok &&
			eligibleJoin(m.Rows[pi]) && s.consumers[m.Rows[i].LHR.Reg] == 1 {
			continue
		}
		if chain := collectChain(m, s, i); chain != nil && chain.swapBottom(m, opts) {
			return true
		}
	}
	return false
}

// joinChain is one left-deep chain of eligible joins plus the validated
// tower of rows above it, ending in the terminal Project.
type joinChain struct {
	joins []int // row indexes, bottom-up
	// leaves[0] feeds the first join's LHR; leaves[i] (i >= 1) feeds join
	// i-1's RHR.
	leaves []int
	above  []int // row indexes from the chain top to the terminal Project
}

// eligibleJoin reports whether a row is a PQP equi-join over two registers.
func eligibleJoin(r Row) bool {
	return r.Op == OpJoin && r.EL == "PQP" && r.HasTheta && r.Theta == rel.ThetaEQ &&
		r.LHR.Kind == OpdReg && r.RHR.Kind == OpdReg &&
		len(r.LHA) == 1 && r.RHA.Kind == CmpAttr
}

// collectChain walks upward from the bottom join, then validates the tower
// above the chain top. It returns nil when the shape does not qualify.
func collectChain(m *Matrix, s *planState, bottom int) *joinChain {
	c := &joinChain{}
	c.joins = append(c.joins, bottom)
	c.leaves = append(c.leaves, 0) // placeholder for the bottom-left leaf, fixed below
	i := bottom
	for {
		row := m.Rows[i]
		ri, ok := s.producer[row.RHR.Reg]
		if !ok || s.consumers[row.RHR.Reg] != 1 {
			return nil
		}
		c.leaves = append(c.leaves, ri)
		// Extend upward while this join's register feeds exactly one
		// consumer that is itself an eligible join's LHR.
		if s.consumers[row.PR] != 1 {
			break
		}
		ni := consumerOf(m, row.PR)
		if ni < 0 || !eligibleJoin(m.Rows[ni]) || m.Rows[ni].LHR.Reg != row.PR {
			break
		}
		c.joins = append(c.joins, ni)
		i = ni
	}
	li, ok := s.producer[m.Rows[bottom].LHR.Reg]
	if !ok || s.consumers[m.Rows[bottom].LHR.Reg] != 1 {
		return nil
	}
	c.leaves[0] = li
	// Validate the tower above the top join: single-consumer PQP
	// selections/restrictions, terminated by a Project.
	reg := m.Rows[c.joins[len(c.joins)-1]].PR
	for {
		if s.consumers[reg] != 1 {
			return nil
		}
		ti := consumerOf(m, reg)
		if ti < 0 {
			return nil
		}
		t := m.Rows[ti]
		if t.EL != "PQP" || t.LHR.Kind != OpdReg || t.LHR.Reg != reg || t.RHR.Kind != OpdNone {
			return nil
		}
		c.above = append(c.above, ti)
		switch t.Op {
		case OpSelect, OpRestrict:
			reg = t.PR
			continue
		case OpProject:
			return c
		default:
			return nil
		}
	}
}

// consumerOf finds the single row consuming reg (-1 if none).
func consumerOf(m *Matrix, reg int) int {
	for i, row := range m.Rows {
		found := false
		forEachReg(row, func(r int) {
			if r == reg {
				found = true
			}
		})
		if found {
			return i
		}
	}
	return -1
}

// chainStep is one join of a simulated chain: attach leaf via
// composite[xName] = leaf[yName].
type chainStep struct {
	leaf         int
	xName, yName string
}

// leafInfo is the simulated shape of one chain leaf.
type leafInfo struct {
	attrs []core.Attr
	rows  float64
	// fullRows is the unfiltered cardinality of the leaf's base relation
	// and keyCol the index of its single-column primary key in attrs (-1
	// when unknown, composite, or projected away). Together they sharpen
	// the join-output estimate: a join whose predicate hits a primary key
	// yields |other side| × (rows / fullRows) instead of the independence
	// guess.
	fullRows float64
	keyCol   int
}

// localLeaf simulates an LQP-resident leaf from the statistics catalog: the
// relation's column list annotated through the schema and filtered by the
// row's own projection and pushed steps, and its cardinality scaled by the
// default selectivity of each filter the LQP applies.
func localLeaf(row Row, opts Options) (leafInfo, bool) {
	if !isLocalRow(row) || row.LHR.Kind != OpdLocal {
		return leafInfo{}, false
	}
	db, lscheme := row.EL, row.LHR.Name
	rs, ok := opts.Stats.Relation(db, lscheme)
	if !ok || len(rs.Columns) == 0 {
		return leafInfo{}, false
	}
	cols := rs.Columns
	est := float64(rs.Rows)
	switch row.Op {
	case OpProject:
		cols = row.LHA
	case OpSelect, OpRestrict:
		est *= stats.DefaultFilterSelectivity
	}
	for _, op := range row.Pushed {
		switch op.Kind {
		case lqp.OpProject:
			cols = op.Attrs
		case lqp.OpSelect, lqp.OpRestrict:
			est *= stats.DefaultFilterSelectivity
		}
	}
	l2p, _, _ := localAttrMaps(opts.Schema, db, lscheme)
	leaf := leafInfo{attrs: make([]core.Attr, len(cols)), rows: est, fullRows: float64(rs.Rows), keyCol: -1}
	for i, c := range cols {
		leaf.attrs[i] = core.Attr{Name: c, Polygen: l2p[c]}
		if len(rs.Key) == 1 && c == rs.Key[0] {
			leaf.keyCol = i
		}
	}
	return leaf, true
}

// swapBottom simulates the chain as written and with its bottom join's
// operands swapped, and swaps them in the matrix when the checks in the
// file comment pass. It reports whether the matrix changed.
func (c *joinChain) swapBottom(m *Matrix, opts Options) bool {
	leaves := make([]leafInfo, len(c.leaves))
	for i, li := range c.leaves {
		var ok bool
		if leaves[i], ok = localLeaf(m.Rows[li], opts); !ok {
			return false
		}
	}
	// The swap only pays when the bottom-left leaf is the smaller one.
	if leaves[0].rows >= leaves[1].rows {
		return false
	}
	steps := make([]chainStep, len(c.joins))
	for ji, idx := range c.joins {
		row := m.Rows[idx]
		steps[ji] = chainStep{leaf: ji + 1, xName: row.LHA[0], yName: row.RHA.Attr}
	}
	orig, origCost, ok := simulate(0, steps, leaves)
	if !ok {
		return false
	}
	swapped := append([]chainStep{{leaf: 0, xName: steps[0].yName, yName: steps[0].xName}}, steps[1:]...)
	comp, cost, ok := simulate(1, swapped, leaves)
	// Strict improvement stabilizes the pass: every swap lowers the
	// deterministic cost estimate, so the rescan does not swap back.
	if !ok || cost >= origCost*0.99 || !compositesEqual(orig, comp) {
		return false
	}
	for _, ti := range c.above {
		for _, name := range referencedNames(m.Rows[ti]) {
			if !sameResolution(orig, comp, name) {
				return false
			}
		}
	}
	b := &m.Rows[c.joins[0]]
	b.LHR, b.RHR = b.RHR, b.LHR
	b.LHA, b.RHA = []string{b.RHA.Attr}, AttrComparand(b.LHA[0])
	return true
}

// stepCost estimates one join step — 2×build + probe + output, the build
// side weighted because hashing costs more per row than probing — and the
// output cardinality that becomes the next probe side. A predicate hitting
// a single-column primary key (on either side, located through the
// composite's provenance) caps the output at |other side| × the keyed
// relation's filter selectivity; otherwise the independence guess applies.
func stepCost(comp composite, inter float64, st chainStep, leaves []leafInfo) (cost, out float64, ok bool) {
	leaf := leaves[st.leaf]
	xi, err := core.ResolveAttrIn("", comp.attrs, st.xName)
	if err != nil {
		return 0, 0, false
	}
	yi, err := core.ResolveAttrIn("", leaf.attrs, st.yName)
	if err != nil {
		return 0, 0, false
	}
	out = inter * leaf.rows * stats.DefaultFilterSelectivity
	if yi == leaf.keyCol && leaf.fullRows > 0 {
		out = min(out, inter*leaf.rows/leaf.fullRows)
	}
	if len(comp.prov[xi]) == 1 {
		for lc := range comp.prov[xi] {
			la := leaves[lc.leaf]
			if lc.col == la.keyCol && la.fullRows > 0 {
				out = min(out, inter*leaf.rows/la.fullRows)
			}
		}
	}
	return 2*leaf.rows + inter + out, out, true
}

// simulate joins the leaves in the given order, returning the final
// composite and the estimated chain cost. Deterministic in its inputs — the
// strict-improvement gate in swapBottom relies on that.
func simulate(start int, steps []chainStep, leaves []leafInfo) (composite, float64, bool) {
	comp := newComposite(leaves[start], start)
	inter := leaves[start].rows
	total := 0.0
	for _, st := range steps {
		cost, out, ok := stepCost(comp, inter, st, leaves)
		if !ok {
			return composite{}, 0, false
		}
		if comp, ok = comp.join(st.xName, leaves[st.leaf], st.leaf, st.yName); !ok {
			return composite{}, 0, false
		}
		total += cost
		inter = out
	}
	return comp, total, true
}

// referencedNames lists the attribute names a tower row resolves against
// the chain's output.
func referencedNames(r Row) []string {
	names := append([]string(nil), r.LHA...)
	if r.RHA.Kind == CmpAttr {
		names = append(names, r.RHA.Attr)
	}
	return names
}

// ---------------------------------------------------------------------------
// Chain simulation: layouts and provenance.

// composite is a simulated join composite: the attribute list plus, per
// column, the set of leaf columns coalesced into it.
type composite struct {
	attrs []core.Attr
	prov  []provSet
}

type provSet map[leafCol]bool

type leafCol struct{ leaf, col int }

func (p provSet) key() string {
	cols := make([]string, 0, len(p))
	for lc := range p {
		cols = append(cols, fmt.Sprintf("%d.%d", lc.leaf, lc.col))
	}
	sort.Strings(cols)
	return strings.Join(cols, ",")
}

func (p provSet) union(o provSet) provSet {
	out := make(provSet, len(p)+len(o))
	for lc := range p {
		out[lc] = true
	}
	for lc := range o {
		out[lc] = true
	}
	return out
}

func newComposite(leaf leafInfo, idx int) composite {
	c := composite{
		attrs: append([]core.Attr(nil), leaf.attrs...),
		prov:  make([]provSet, len(leaf.attrs)),
	}
	for i := range leaf.attrs {
		c.prov[i] = provSet{leafCol{leaf: idx, col: i}: true}
	}
	return c
}

// join simulates joining the composite (left) with a leaf (right) on
// xName = yName, refusing any layout that needs disambiguation.
func (c composite) join(xName string, leaf leafInfo, idx int, yName string) (composite, bool) {
	right := leaf.attrs
	xi, err := core.ResolveAttrIn("", c.attrs, xName)
	if err != nil {
		return composite{}, false
	}
	yi, err := core.ResolveAttrIn("", right, yName)
	if err != nil {
		return composite{}, false
	}
	out, coalesce := core.JoinLayout(c.attrs, xi, "", right, yi)
	// Reject layouts that renamed anything: runtime disambiguation depends
	// on relation names the simulation cannot reproduce.
	for i, at := range out {
		var want core.Attr
		switch {
		case i < len(c.attrs):
			if coalesce && i == xi {
				continue // the coalesced column may adopt the polygen name
			}
			want = c.attrs[i]
		case coalesce:
			want = rightAttrSkipping(right, yi, i-len(c.attrs))
		default:
			want = right[i-len(c.attrs)]
		}
		if at.Name != want.Name {
			return composite{}, false
		}
	}
	rc := newComposite(leaf, idx)
	n := composite{attrs: out}
	n.prov = append(n.prov, c.prov...)
	if coalesce {
		n.prov[xi] = c.prov[xi].union(rc.prov[yi])
	}
	for i := range right {
		if coalesce && i == yi {
			continue
		}
		n.prov = append(n.prov, rc.prov[i])
	}
	return n, true
}

func rightAttrSkipping(right []core.Attr, yi, i int) core.Attr {
	if i >= yi {
		i++
	}
	return right[i]
}

// compositesEqual compares two simulated layouts as multisets of
// (provenance set, name, polygen annotation) — column order is free, the
// terminal Project pins it.
func compositesEqual(a, b composite) bool {
	if len(a.attrs) != len(b.attrs) {
		return false
	}
	sig := func(c composite) []string {
		out := make([]string, len(c.attrs))
		for i, at := range c.attrs {
			out[i] = c.prov[i].key() + "|" + at.Name + "|" + at.Polygen
		}
		sort.Strings(out)
		return out
	}
	sa, sb := sig(a), sig(b)
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

// sameResolution checks that name resolves in both layouts to a column with
// identical provenance, name and annotation.
func sameResolution(a, b composite, name string) bool {
	ai, errA := core.ResolveAttrIn("", a.attrs, name)
	bi, errB := core.ResolveAttrIn("", b.attrs, name)
	if errA != nil || errB != nil {
		return false
	}
	return a.prov[ai].key() == b.prov[bi].key() &&
		a.attrs[ai] == b.attrs[bi]
}
