package core

import (
	"fmt"
	"strings"

	"repro/internal/rel"
	"repro/internal/sourceset"
)

// Attr describes one column of a runtime polygen relation. Right after a
// Retrieve the column still bears its local attribute name (the paper's
// Table 5 shows BNAME, not ONAME); the polygen attribute it maps to — when
// known from the polygen schema — is carried alongside so that later
// operations can resolve polygen attribute names (the Join "[ONAME = ONAME]"
// of Table 3 finds Table 5's BNAME column through this mapping) and so that
// Coalesce/Merge can name their outputs.
type Attr struct {
	// Name is the current display name of the column.
	Name string
	// Polygen is the polygen attribute name the column corresponds to, or
	// "" when the column does not (yet) correspond to one.
	Polygen string
}

// Relation is a runtime polygen relation: a set of polygen tuples over a
// list of attributes. All relations within one federation share a source
// registry, which is carried here for rendering and tag interpretation.
type Relation struct {
	// Name optionally names the relation (base relations keep their local
	// scheme name; derived relations are usually unnamed).
	Name string
	// Attrs describes the columns.
	Attrs []Attr
	// Tuples holds the rows.
	Tuples []Tuple
	// Reg resolves source IDs in the cells' tag sets to database names.
	Reg *sourceset.Registry
	// arena backs rows produced by the algebra: operators slice output rows
	// out of relation-owned chunks (NewRow) instead of one make per row. The
	// first chunk holds 16 rows and each later one doubles, up to
	// arenaChunkCells, so a small batch relation zeroes only what it uses.
	// Rows carved from retired chunks stay valid — they keep the old backing
	// array alive — so the arena only ever grows forward.
	arena []Cell
}

// arenaChunkCells caps the cell count of one freshly-grown arena chunk.
const arenaChunkCells = 4096

// arenaFirstRows is the row count the first arena chunk of a relation holds.
const arenaFirstRows = 16

// NewRow returns a zeroed row of n cells sliced out of the relation's arena.
// The row's capacity is clamped to n, so appending to it cannot scribble
// over neighboring rows. Relations are built by a single goroutine; NewRow
// is not safe for concurrent use on one relation.
func (p *Relation) NewRow(n int) Tuple {
	if n == 0 {
		return Tuple{}
	}
	if cap(p.arena)-len(p.arena) < n {
		chunk := arenaFirstRows * n
		if c := cap(p.arena); c > 0 {
			chunk = 2 * c
		}
		chunk = max(min(chunk, arenaChunkCells), n)
		p.arena = make([]Cell, 0, chunk)
	}
	s := len(p.arena)
	p.arena = p.arena[:s+n]
	return p.arena[s : s+n : s+n]
}

// NewRelation returns an empty polygen relation.
func NewRelation(name string, reg *sourceset.Registry, attrs ...Attr) *Relation {
	return &Relation{Name: name, Attrs: attrs, Reg: reg}
}

// Degree returns the number of attributes.
func (p *Relation) Degree() int { return len(p.Attrs) }

// Cardinality returns the number of tuples.
func (p *Relation) Cardinality() int { return len(p.Tuples) }

// AttrNames returns the display names of the columns.
func (p *Relation) AttrNames() []string {
	names := make([]string, len(p.Attrs))
	for i, a := range p.Attrs {
		names[i] = a.Name
	}
	return names
}

// Col resolves an attribute reference to a column index. A reference matches
// a column if it equals the column's display name, or — failing any display
// name match — if it equals the column's polygen attribute name. An
// ambiguous reference (two columns match) is an error; the polygen query
// translator produces unambiguous plans for well-formed queries.
func (p *Relation) Col(name string) (int, error) {
	return colIn(p.Name, p.Attrs, name)
}

// colIn is Col over a bare attribute list, shared with the streaming
// operators, whose inputs are cursors rather than materialized relations.
func colIn(relName string, attrs []Attr, name string) (int, error) {
	found := -1
	for i, a := range attrs {
		if a.Name == name {
			if found >= 0 {
				return 0, fmt.Errorf("core: attribute %q is ambiguous in %s", name, describeAttrs(relName, attrs))
			}
			found = i
		}
	}
	if found >= 0 {
		return found, nil
	}
	for i, a := range attrs {
		if a.Polygen == name {
			if found >= 0 {
				return 0, fmt.Errorf("core: polygen attribute %q is ambiguous in %s", name, describeAttrs(relName, attrs))
			}
			found = i
		}
	}
	if found >= 0 {
		return found, nil
	}
	return 0, fmt.Errorf("core: no attribute %q in %s", name, describeAttrs(relName, attrs))
}

func (p *Relation) describe() string { return describeAttrs(p.Name, p.Attrs) }

func describeAttrs(relName string, attrs []Attr) string {
	names := make([]string, len(attrs))
	for i, a := range attrs {
		if a.Polygen != "" && a.Polygen != a.Name {
			names[i] = a.Name + "/" + a.Polygen
		} else {
			names[i] = a.Name
		}
	}
	if relName == "" {
		relName = "relation"
	}
	return fmt.Sprintf("%s(%s)", relName, strings.Join(names, ", "))
}

// Append adds a tuple, checking its degree.
func (p *Relation) Append(t Tuple) error {
	if len(t) != len(p.Attrs) {
		return fmt.Errorf("core: tuple degree %d does not match %s", len(t), p.describe())
	}
	p.Tuples = append(p.Tuples, t)
	return nil
}

// Clone returns a deep copy. The copy's rows are carved from its own arena.
func (p *Relation) Clone() *Relation {
	c := &Relation{Name: p.Name, Attrs: append([]Attr(nil), p.Attrs...), Reg: p.Reg, Tuples: make([]Tuple, len(p.Tuples))}
	for i, t := range p.Tuples {
		row := c.NewRow(len(t))
		copy(row, t)
		c.Tuples[i] = row
	}
	return c
}

// Data strips the tags and returns the plain data relation — used to compare
// polygen results against the untagged baseline and to hand results to
// consumers that only want t(d).
func (p *Relation) Data() *rel.Relation {
	r := rel.NewRelation(p.Name, rel.SchemaOf(p.AttrNames()...))
	for _, t := range p.Tuples {
		r.Tuples = append(r.Tuples, t.Data())
	}
	return r
}

// OriginUnion returns p(o): the union of all originating source sets of all
// cells, as used by the Difference primitive.
func (p *Relation) OriginUnion() sourceset.Set {
	var s sourceset.Set
	for _, t := range p.Tuples {
		s = s.Union(t.OriginUnion())
	}
	return s
}

// FromPlain tags every cell of a plain relation with origin {src} and an
// empty intermediate set — exactly what the PQP does to a relation returned
// by an LQP, with src the execution location (paper, §III: the EL "is also
// used as the originating source tag for each of the cells"). The polygen
// attribute names are left unset; callers with schema knowledge annotate
// them afterwards.
func FromPlain(r *rel.Relation, src sourceset.ID, reg *sourceset.Registry) *Relation {
	attrs := make([]Attr, r.Schema.Len())
	for i, a := range r.Schema.Attrs() {
		attrs[i] = Attr{Name: a.Name}
	}
	p := NewRelation(r.Name, reg, attrs...)
	origin := sourceset.Of(src)
	for _, t := range r.Tuples {
		row := p.NewRow(len(t))
		for i, v := range t {
			row[i] = Cell{D: v, O: origin}
		}
		p.Tuples = append(p.Tuples, row)
	}
	return p
}

// String renders the relation with every cell in the paper's
// "datum, {o...}, {i...}" notation.
func (p *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%d tuples]\n", p.describe(), len(p.Tuples))
	for _, t := range p.Tuples {
		parts := make([]string, len(t))
		for i, c := range t {
			parts[i] = c.Format(p.Reg)
		}
		b.WriteString("  " + strings.Join(parts, " | ") + "\n")
	}
	return b.String()
}
