package core

import (
	"fmt"
)

// ConflictHandler resolves a Coalesce between two non-nil, non-matching data
// values — a data conflict between sources, which the paper's assumptions
// rule out of the worked example but which real federations exhibit (§V
// names data conflict resolution as the research the polygen model founds).
// It returns the coalesced cell.
type ConflictHandler func(x, y Cell) Cell

// SetConflictHandler installs h for subsequent Coalesce operations. A nil h
// restores the default policy: keep x's datum and origin, and fold y's
// origin and intermediates into the intermediate set (y's source was
// consulted, but did not originate the surviving datum).
func (a *Algebra) SetConflictHandler(h ConflictHandler) { a.conflict = h }

func (a *Algebra) resolveConflict(x, y Cell) Cell {
	if a.conflict != nil {
		return a.conflict(x, y)
	}
	return Cell{D: x.D, O: x.O, I: x.I.Union(y.I).Union(y.O)}
}

// Coalesce implements the sixth orthogonal primitive p[x © y : w]: the two
// columns x and y collapse into one column w placed at x's position. Per
// §II, for each tuple:
//
//   - if t[x](d) = t[y](d): the datum is kept once with both origin sets and
//     both intermediate sets unioned;
//   - if t[y](d) = nil: x's cell passes through;
//   - if t[x](d) = nil: y's cell passes through.
//
// Data equality is instance equality under the algebra's resolver (Appendix
// A coalesces "CitiCorp" with "Citicorp"); on equal instances the left datum
// is kept, matching Table A5. Conflicting non-nil data — undefined in the
// paper — go through the ConflictHandler.
func (a *Algebra) Coalesce(p *Relation, x, y, w string) (*Relation, error) {
	xi, err := p.Col(x)
	if err != nil {
		return nil, err
	}
	yi, err := p.Col(y)
	if err != nil {
		return nil, err
	}
	if xi == yi {
		return nil, fmt.Errorf("core: coalesce of attribute %q with itself", x)
	}
	attrs := make([]Attr, 0, len(p.Attrs)-1)
	for i, at := range p.Attrs {
		switch i {
		case xi:
			pg := at.Polygen
			if pg == "" {
				pg = p.Attrs[yi].Polygen
			}
			attrs = append(attrs, Attr{Name: w, Polygen: pg})
		case yi:
			// dropped
		default:
			attrs = append(attrs, at)
		}
	}
	out := NewRelation("", p.Reg, attrs...)
	for _, t := range p.Tuples {
		cx, cy := t[xi], t[yi]
		var cw Cell
		switch {
		case cy.D.IsNull():
			cw = cx
		case cx.D.IsNull():
			cw = cy
		case a.same(cx.D, cy.D):
			cw = Cell{D: cx.D, O: cx.O.Union(cy.O), I: cx.I.Union(cy.I)}
		default:
			cw = a.resolveConflict(cx, cy)
		}
		row := out.NewRow(len(t) - 1)[:0]
		for i, c := range t {
			switch i {
			case xi:
				row = append(row, cw)
			case yi:
				// dropped
			default:
				row = append(row, c)
			}
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out, nil
}

// OuterJoin computes the full outer equi-join of p1 and p2 on x = y (instance
// equality). Matched tuple pairs concatenate with the join attributes'
// origins added to every cell's intermediate set, exactly as Restrict does;
// an unmatched tuple is padded with nil cells carrying an empty origin set
// and the intermediate sets contributed by its own join attribute's origin
// (Table A4's "nil, {}, {AD}" cells).
func (a *Algebra) OuterJoin(p1 *Relation, x string, p2 *Relation, y string) (*Relation, error) {
	xi, err := p1.Col(x)
	if err != nil {
		return nil, err
	}
	yi, err := p2.Col(y)
	if err != nil {
		return nil, err
	}
	attrs := productAttrs(p1.Attrs, p2.Name, p2.Attrs)
	out := NewRelation("", p1.Reg, attrs...)

	// Probe by interned canonical ID over position buckets, as Join does.
	res := a.Resolver()
	index := newIDIndex(res, p2.Tuples, yi)
	matched2 := make([]bool, len(p2.Tuples))
	for _, t1 := range p1.Tuples {
		var matches []int32
		if !t1[xi].D.IsNull() {
			matches = index.lookup(res.CanonicalID(t1[xi].D))
		}
		if len(matches) == 0 {
			// Unmatched left tuple: right side nil-padded; only the left
			// join attribute mediates.
			med := t1[xi].O
			row := out.NewRow(len(attrs))[:0]
			for _, c := range t1 {
				row = append(row, c.WithIntermediate(med))
			}
			for range p2.Attrs {
				row = append(row, NilCell(med))
			}
			out.Tuples = append(out.Tuples, row)
			continue
		}
		for _, mi := range matches {
			matched2[mi] = true
			t2 := p2.Tuples[mi]
			med := t1[xi].O.Union(t2[yi].O)
			row := out.NewRow(len(attrs))[:0]
			for _, c := range t1 {
				row = append(row, c.WithIntermediate(med))
			}
			for _, c := range t2 {
				row = append(row, c.WithIntermediate(med))
			}
			out.Tuples = append(out.Tuples, row)
		}
	}
	for i, t2 := range p2.Tuples {
		if matched2[i] {
			continue
		}
		med := t2[yi].O
		row := out.NewRow(len(attrs))[:0]
		for range p1.Attrs {
			row = append(row, NilCell(med))
		}
		for _, c := range t2 {
			row = append(row, c.WithIntermediate(med))
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out, nil
}

// OuterNaturalPrimaryJoin is an outer join on the two operands' columns for
// the polygen key attribute, with those columns coalesced into one column
// named after the key (paper §II: "an Outer Natural Join on the primary key
// of a polygen relation"). x and y name the key columns in p1 and p2; w is
// the coalesced (polygen key) name.
func (a *Algebra) OuterNaturalPrimaryJoin(p1 *Relation, x string, p2 *Relation, y string, w string) (*Relation, error) {
	oj, err := a.OuterJoin(p1, x, p2, y)
	if err != nil {
		return nil, err
	}
	// The right key column may have been renamed by disambiguation; address
	// it by position.
	xi, err := p1.Col(x)
	if err != nil {
		return nil, err
	}
	yi, err := p2.Col(y)
	if err != nil {
		return nil, err
	}
	xName := oj.Attrs[xi].Name
	yName := oj.Attrs[len(p1.Attrs)+yi].Name
	return a.Coalesce(oj, xName, yName, w)
}

// OuterNaturalTotalJoin performs the Outer Natural Primary Join of p1 and p2
// on the scheme's key and then coalesces every other polygen attribute both
// operands carry, renaming single-sided local columns to their polygen
// names (Appendix A, steps (1)–(3)). Both operands' columns must be
// annotated with the polygen attributes they map to — Retrieve establishes
// the annotation from the polygen schema.
func (a *Algebra) OuterNaturalTotalJoin(p1, p2 *Relation, scheme *Scheme) (*Relation, error) {
	x, err := colByPolygen(p1, scheme.Key)
	if err != nil {
		return nil, fmt.Errorf("core: ONTJ left operand: %w", err)
	}
	y, err := colByPolygen(p2, scheme.Key)
	if err != nil {
		return nil, fmt.Errorf("core: ONTJ right operand: %w", err)
	}
	cur, err := a.OuterNaturalPrimaryJoin(p1, p1.Attrs[x].Name, p2, p2.Attrs[y].Name, scheme.Key)
	if err != nil {
		return nil, err
	}
	for _, pa := range scheme.Attrs {
		if pa.Name == scheme.Key {
			continue
		}
		cols := colsByPolygen(cur, pa.Name)
		switch len(cols) {
		case 0:
			// Neither operand carries this polygen attribute.
		case 1:
			if cur.Attrs[cols[0]].Name != pa.Name {
				cur, err = a.Rename(cur, cur.Attrs[cols[0]].Name, pa.Name)
				if err != nil {
					return nil, err
				}
			}
		case 2:
			cur, err = a.Coalesce(cur, cur.Attrs[cols[0]].Name, cur.Attrs[cols[1]].Name, pa.Name)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("core: ONTJ: polygen attribute %q appears in %d columns", pa.Name, len(cols))
		}
	}
	return cur, nil
}

func colByPolygen(p *Relation, pa string) (int, error) {
	cols := colsByPolygen(p, pa)
	switch len(cols) {
	case 1:
		return cols[0], nil
	case 0:
		return 0, fmt.Errorf("no column maps to polygen attribute %q in %s", pa, p.describe())
	default:
		return 0, fmt.Errorf("polygen attribute %q is ambiguous in %s", pa, p.describe())
	}
}

func colsByPolygen(p *Relation, pa string) []int {
	var out []int
	for i, at := range p.Attrs {
		if at.Polygen == pa {
			out = append(out, i)
		}
	}
	return out
}

// Merge extends the Outer Natural Total Join to any number of polygen
// relations belonging to one polygen scheme (§II): a left fold of ONTJ. With
// a single operand it normalizes the column names to the polygen attribute
// names, which is what the total join would have produced. §II notes the
// fold order is immaterial; TestMergeOrderIndependence checks the instance-
// level form of that claim.
func (a *Algebra) Merge(scheme *Scheme, rels ...*Relation) (*Relation, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("core: merge of zero relations for scheme %q", scheme.Name)
	}
	if len(rels) == 1 {
		return a.normalizeToScheme(rels[0], scheme)
	}
	cur := rels[0]
	var err error
	for _, next := range rels[1:] {
		cur, err = a.OuterNaturalTotalJoin(cur, next, scheme)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// normalizeToScheme renames every polygen-annotated column of p to its
// polygen attribute name.
func (a *Algebra) normalizeToScheme(p *Relation, scheme *Scheme) (*Relation, error) {
	out := p.Clone()
	for i, at := range out.Attrs {
		if at.Polygen != "" && at.Name != at.Polygen {
			if _, ok := scheme.Attr(at.Polygen); ok {
				out.Attrs[i] = Attr{Name: at.Polygen, Polygen: at.Polygen}
			}
		}
	}
	return out, nil
}
