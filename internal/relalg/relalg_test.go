package relalg

import (
	"testing"

	"repro/internal/rel"
)

func mk(name string, attrs []string, rows ...[]any) *rel.Relation {
	r := rel.NewRelation(name, rel.SchemaOf(attrs...))
	for _, row := range rows {
		t := make(rel.Tuple, len(row))
		for i, v := range row {
			switch x := v.(type) {
			case string:
				t[i] = rel.String(x)
			case int:
				t[i] = rel.Int(int64(x))
			case float64:
				t[i] = rel.Float(x)
			case nil:
				t[i] = rel.Null()
			default:
				panic("unsupported literal")
			}
		}
		if err := r.Append(t); err != nil {
			panic(err)
		}
	}
	return r
}

func rows(r *rel.Relation) []string {
	out := make([]string, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		s := ""
		for i, v := range t {
			if i > 0 {
				s += "|"
			}
			s += v.String()
		}
		out = append(out, s)
	}
	return out
}

func wantRows(t *testing.T, r *rel.Relation, want ...string) {
	t.Helper()
	got := rows(r)
	if len(got) != len(want) {
		t.Fatalf("got %d rows %v, want %d rows %v", len(got), got, len(want), want)
	}
	seen := make(map[string]int)
	for _, g := range got {
		seen[g]++
	}
	for _, w := range want {
		if seen[w] == 0 {
			t.Errorf("missing row %q in %v", w, got)
		}
		seen[w]--
	}
}

func people() *rel.Relation {
	return mk("P", []string{"ID", "NAME", "AGE"},
		[]any{1, "ann", 30},
		[]any{2, "bob", 25},
		[]any{3, "cat", 30},
	)
}

func TestSelect(t *testing.T) {
	r, err := Select(people(), "AGE", rel.ThetaEQ, rel.Int(30))
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, r, "1|ann|30", "3|cat|30")
	if _, err := Select(people(), "ZZZ", rel.ThetaEQ, rel.Int(0)); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestSelectThetaVariants(t *testing.T) {
	lt, _ := Select(people(), "AGE", rel.ThetaLT, rel.Int(30))
	wantRows(t, lt, "2|bob|25")
	ge, _ := Select(people(), "AGE", rel.ThetaGE, rel.Int(30))
	wantRows(t, ge, "1|ann|30", "3|cat|30")
	ne, _ := Select(people(), "NAME", rel.ThetaNE, rel.String("ann"))
	wantRows(t, ne, "2|bob|25", "3|cat|30")
}

func TestRestrict(t *testing.T) {
	r := mk("R", []string{"A", "B"},
		[]any{1, 1}, []any{1, 2}, []any{3, 3},
	)
	eq, err := Restrict(r, "A", rel.ThetaEQ, "B")
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, eq, "1|1", "3|3")
	if _, err := Restrict(r, "A", rel.ThetaEQ, "Z"); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestProjectDeduplicates(t *testing.T) {
	r, err := Project(people(), []string{"AGE"})
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, r, "30", "25")
	if r.Schema.Len() != 1 || r.Schema.Attr(0).Name != "AGE" {
		t.Errorf("schema = %v", r.Schema)
	}
}

func TestProjectReorders(t *testing.T) {
	r, err := Project(people(), []string{"NAME", "ID"})
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, r, "ann|1", "bob|2", "cat|3")
}

// TestProjectRejectsRepeatedAttr: a projection naming one attribute twice
// is an error, not a panic — LQP servers run Project on client input.
func TestProjectRejectsRepeatedAttr(t *testing.T) {
	if _, err := Project(people(), []string{"AGE", "AGE"}); err == nil {
		t.Fatal("Project accepted a repeated attribute")
	}
}

func TestProduct(t *testing.T) {
	a := mk("A", []string{"X"}, []any{1}, []any{2})
	b := mk("B", []string{"Y"}, []any{"p"}, []any{"q"})
	p, err := Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, p, "1|p", "1|q", "2|p", "2|q")
}

func TestProductDisambiguatesNames(t *testing.T) {
	a := mk("A", []string{"X"}, []any{1})
	b := mk("B", []string{"X"}, []any{2})
	p, err := Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	names := p.Schema.Names()
	if names[0] != "X" || names[1] != "B.X" {
		t.Errorf("names = %v", names)
	}
	// Unnamed right relation falls back to positional suffix.
	c := mk("", []string{"X"}, []any{3})
	p2, err := Product(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Schema.Names()[1] != "X#2" {
		t.Errorf("names = %v", p2.Schema.Names())
	}
}

func TestUnion(t *testing.T) {
	a := mk("A", []string{"X"}, []any{1}, []any{2})
	b := mk("B", []string{"X"}, []any{2}, []any{3})
	u, err := Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, u, "1", "2", "3")
	if _, err := Union(a, people()); err == nil {
		t.Error("degree mismatch accepted")
	}
}

func TestDifference(t *testing.T) {
	a := mk("A", []string{"X"}, []any{1}, []any{2}, []any{2}, []any{3})
	b := mk("B", []string{"X"}, []any{2})
	d, err := Difference(a, b)
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, d, "1", "3")
	if _, err := Difference(a, people()); err == nil {
		t.Error("degree mismatch accepted")
	}
}

func TestIntersect(t *testing.T) {
	a := mk("A", []string{"X"}, []any{1}, []any{2})
	b := mk("B", []string{"X"}, []any{2}, []any{3})
	i, err := Intersect(a, b)
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, i, "2")
	if _, err := Intersect(a, people()); err == nil {
		t.Error("degree mismatch accepted")
	}
}

func TestJoin(t *testing.T) {
	emp := mk("E", []string{"NAME", "DEPT"},
		[]any{"ann", "db"}, []any{"bob", "os"}, []any{"cat", "db"},
	)
	dep := mk("D", []string{"DNAME", "HEAD"},
		[]any{"db", "turing"}, []any{"os", "ritchie"},
	)
	j, err := Join(emp, "DEPT", dep, "DNAME")
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, j, "ann|db|turing", "bob|os|ritchie", "cat|db|turing")
	names := j.Schema.Names()
	if len(names) != 3 || names[2] != "HEAD" {
		t.Errorf("join schema = %v", names)
	}
}

func TestJoinSkipsNulls(t *testing.T) {
	a := mk("A", []string{"K"}, []any{nil}, []any{1})
	b := mk("B", []string{"K2"}, []any{nil}, []any{1})
	j, err := Join(a, "K", b, "K2")
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, j, "1")
}

func TestJoinManyToMany(t *testing.T) {
	a := mk("A", []string{"K", "V"}, []any{1, "a1"}, []any{1, "a2"})
	b := mk("B", []string{"K2", "W"}, []any{1, "b1"}, []any{1, "b2"})
	j, err := Join(a, "K", b, "K2")
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, j, "1|a1|b1", "1|a1|b2", "1|a2|b1", "1|a2|b2")
}

// TestJoinEqualsRestrictOfProduct checks §II's definition of Join against
// the primitive composition on the untagged baseline.
func TestJoinEqualsRestrictOfProduct(t *testing.T) {
	a := mk("A", []string{"K", "V"}, []any{1, "x"}, []any{2, "y"}, []any{3, "z"})
	b := mk("B", []string{"K2", "W"}, []any{2, "p"}, []any{3, "q"}, []any{4, "r"})
	viaJoin, err := Join(a, "K", b, "K2")
	if err != nil {
		t.Fatal(err)
	}
	prod, err := Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	restricted, err := Restrict(prod, "K", rel.ThetaEQ, "K2")
	if err != nil {
		t.Fatal(err)
	}
	viaPrimitives, err := Project(restricted, []string{"K", "V", "W"})
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, viaJoin, rows(viaPrimitives)...)
}
