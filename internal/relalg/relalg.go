// Package relalg implements the classical (untagged) relational algebra over
// rel.Relation values: Select, Project, Cartesian Product, Union, Difference,
// and the derived Join and Intersect.
//
// It serves two roles in the reproduction:
//
//   - it is the execution engine inside each Local Query Processor, which the
//     paper requires to "behave as a local relational system" (§I); and
//   - it is the untagged baseline against which the polygen algebra's source
//     tagging overhead is measured (bench B-OV in DESIGN.md).
//
// Like the polygen algebra in package core, the baseline is hash-native:
// tuple identity is a 64-bit hash (rel.Tuple.Hash64) confirmed with Equal on
// collision, join probes hash the join value, and output rows are sliced
// from the relation's arena — so the B-OV overhead numbers compare tagging
// against tagging-free execution, not string keys against hash keys.
package relalg

import (
	"fmt"
	"slices"

	"repro/internal/rel"
)

// tupleIndex buckets tuple positions through the shared rel.BucketIndex,
// confirming candidates with Identical — the untagged counterpart of core's
// dataIndex.
type tupleIndex struct {
	rel.BucketIndex
}

func newTupleIndex(capacity int) tupleIndex {
	return tupleIndex{rel.NewBucketIndex(capacity)}
}

func (ix tupleIndex) find(tuples []rel.Tuple, t rel.Tuple, h uint64) (int, bool) {
	return ix.Find(h, func(at int) bool { return tuples[at].Identical(t) })
}

func (ix tupleIndex) add(h uint64, pos int) { ix.Add(h, pos) }

// Select returns the tuples of r for which attr θ constant holds.
func Select(r *rel.Relation, attr string, theta rel.Theta, constant rel.Value) (*rel.Relation, error) {
	ci, err := r.Col(attr)
	if err != nil {
		return nil, err
	}
	out := rel.NewRelation("", r.Schema)
	for _, t := range r.Tuples {
		if theta.Eval(t[ci], constant) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out, nil
}

// Restrict returns the tuples of r for which x θ y holds between two of r's
// attributes.
func Restrict(r *rel.Relation, x string, theta rel.Theta, y string) (*rel.Relation, error) {
	xi, err := r.Col(x)
	if err != nil {
		return nil, err
	}
	yi, err := r.Col(y)
	if err != nil {
		return nil, err
	}
	out := rel.NewRelation("", r.Schema)
	for _, t := range r.Tuples {
		if theta.Eval(t[xi], t[yi]) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out, nil
}

// Project returns r restricted to the named attributes, with duplicate
// tuples eliminated (set semantics). Naming one attribute twice is an error.
func Project(r *rel.Relation, attrs []string) (*rel.Relation, error) {
	idx := make([]int, len(attrs))
	outAttrs := make([]rel.Attr, len(attrs))
	for i, a := range attrs {
		ci, err := r.Col(a)
		if err != nil {
			return nil, err
		}
		if slices.Contains(idx[:i], ci) {
			return nil, fmt.Errorf("relalg: attribute %q projected twice", a)
		}
		idx[i] = ci
		outAttrs[i] = r.Schema.Attr(ci)
	}
	out := rel.NewRelation("", rel.NewSchema(outAttrs...))
	seen := newTupleIndex(len(r.Tuples))
	scratch := make(rel.Tuple, len(idx))
	for _, t := range r.Tuples {
		for i, ci := range idx {
			scratch[i] = t[ci]
		}
		h := scratch.Hash64(rel.Seed)
		if _, dup := seen.find(out.Tuples, scratch, h); dup {
			continue
		}
		row := out.NewRow(len(scratch))
		copy(row, scratch)
		seen.add(h, len(out.Tuples))
		out.Tuples = append(out.Tuples, row)
	}
	return out, nil
}

// Product returns the Cartesian product of a and b. Attribute names of b that
// collide with names of a are disambiguated with the relation name or a
// positional suffix, mirroring how the polygen processor keeps both columns
// until an explicit Coalesce.
func Product(a, b *rel.Relation) (*rel.Relation, error) {
	attrs := a.Schema.Attrs()
	for i := 0; i < b.Schema.Len(); i++ {
		at := b.Schema.Attr(i)
		name := at.Name
		if containsAttr(attrs, name) {
			name = disambiguate(attrs, b.Name, at.Name)
		}
		attrs = append(attrs, rel.Attr{Name: name, Kind: at.Kind})
	}
	out := rel.NewRelation("", rel.NewSchema(attrs...))
	for _, ta := range a.Tuples {
		for _, tb := range b.Tuples {
			row := out.NewRow(len(ta) + len(tb))
			copy(row, ta)
			copy(row[len(ta):], tb)
			out.Tuples = append(out.Tuples, row)
		}
	}
	return out, nil
}

func containsAttr(attrs []rel.Attr, name string) bool {
	for _, a := range attrs {
		if a.Name == name {
			return true
		}
	}
	return false
}

func disambiguate(attrs []rel.Attr, relName, attrName string) string {
	cand := attrName
	if relName != "" {
		cand = relName + "." + attrName
	}
	for i := 2; containsAttr(attrs, cand); i++ {
		cand = fmt.Sprintf("%s#%d", attrName, i)
	}
	return cand
}

// Union returns the set union of two union-compatible relations.
func Union(a, b *rel.Relation) (*rel.Relation, error) {
	if a.Degree() != b.Degree() {
		return nil, fmt.Errorf("relalg: union of degree %d with degree %d", a.Degree(), b.Degree())
	}
	out := rel.NewRelation("", a.Schema)
	seen := newTupleIndex(len(a.Tuples) + len(b.Tuples))
	for _, src := range [...]*rel.Relation{a, b} {
		for _, t := range src.Tuples {
			h := t.Hash64(rel.Seed)
			if _, dup := seen.find(out.Tuples, t, h); dup {
				continue
			}
			seen.add(h, len(out.Tuples))
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out, nil
}

// Difference returns the tuples of a not present in b.
func Difference(a, b *rel.Relation) (*rel.Relation, error) {
	if a.Degree() != b.Degree() {
		return nil, fmt.Errorf("relalg: difference of degree %d with degree %d", a.Degree(), b.Degree())
	}
	drop := newTupleIndex(len(b.Tuples))
	for i, t := range b.Tuples {
		drop.add(t.Hash64(rel.Seed), i)
	}
	out := rel.NewRelation("", a.Schema)
	seen := newTupleIndex(len(a.Tuples))
	for _, t := range a.Tuples {
		h := t.Hash64(rel.Seed)
		if _, gone := drop.find(b.Tuples, t, h); gone {
			continue
		}
		if _, dup := seen.find(out.Tuples, t, h); dup {
			continue
		}
		seen.add(h, len(out.Tuples))
		out.Tuples = append(out.Tuples, t)
	}
	return out, nil
}

// Intersect returns the tuples present in both a and b.
func Intersect(a, b *rel.Relation) (*rel.Relation, error) {
	if a.Degree() != b.Degree() {
		return nil, fmt.Errorf("relalg: intersect of degree %d with degree %d", a.Degree(), b.Degree())
	}
	keep := newTupleIndex(len(b.Tuples))
	for i, t := range b.Tuples {
		keep.add(t.Hash64(rel.Seed), i)
	}
	out := rel.NewRelation("", a.Schema)
	seen := newTupleIndex(len(a.Tuples))
	for _, t := range a.Tuples {
		h := t.Hash64(rel.Seed)
		if _, in := keep.find(b.Tuples, t, h); !in {
			continue
		}
		if _, dup := seen.find(out.Tuples, t, h); dup {
			continue
		}
		seen.add(h, len(out.Tuples))
		out.Tuples = append(out.Tuples, t)
	}
	return out, nil
}

// Join returns the equi-join of a and b on a.x = b.y, keeping a single join
// column (named after x), mirroring the polygen Join which coalesces the two
// join columns (paper, Tables 5 and 7). It is implemented as a hash join:
// the build side is bucketed by the join value's 64-bit hash and probe
// candidates are confirmed with Equal.
func Join(a *rel.Relation, x string, b *rel.Relation, y string) (*rel.Relation, error) {
	xi, err := a.Col(x)
	if err != nil {
		return nil, err
	}
	yi, err := b.Col(y)
	if err != nil {
		return nil, err
	}
	attrs := a.Schema.Attrs()
	var bKeep []int
	for i := 0; i < b.Schema.Len(); i++ {
		if i == yi {
			continue
		}
		at := b.Schema.Attr(i)
		name := at.Name
		if containsAttr(attrs, name) {
			name = disambiguate(attrs, b.Name, at.Name)
		}
		attrs = append(attrs, rel.Attr{Name: name, Kind: at.Kind})
		bKeep = append(bKeep, i)
	}
	out := rel.NewRelation("", rel.NewSchema(attrs...))

	index := make(map[uint64][]rel.Tuple, len(b.Tuples))
	for _, tb := range b.Tuples {
		if tb[yi].IsNull() {
			continue
		}
		h := tb[yi].Hash64(rel.Seed)
		index[h] = append(index[h], tb)
	}
	for _, ta := range a.Tuples {
		if ta[xi].IsNull() {
			continue
		}
		for _, tb := range index[ta[xi].Hash64(rel.Seed)] {
			if !tb[yi].Identical(ta[xi]) {
				continue // hash collision
			}
			row := out.NewRow(len(ta) + len(bKeep))[:0]
			row = append(row, ta...)
			for _, i := range bKeep {
				row = append(row, tb[i])
			}
			out.Tuples = append(out.Tuples, row)
		}
	}
	return out, nil
}
