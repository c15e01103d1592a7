package wire

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/lqp"
	"repro/internal/rel"
	"repro/internal/sourceset"
)

// This file tests the binary frame codec (rel/codec.go, core/codec.go) as
// the wire uses it, three ways: direct encode/decode round trips over
// adversarially mixed values (NaN, -0, empty strings, nulls, >64-source tag
// sets), every answer-returning client call checked cell for cell and tag
// for tag against its source relation, and a fuzzer (FuzzFrameRoundTrip,
// fuzz_test.go) that both derives random batches from the fuzz input and
// throws the raw input at the decoders, which must fail cleanly rather than
// panic or over-allocate.

// renderCell renders one tagged cell registry-independently (kind, datum,
// sorted tag names) so answers decoded into different client registries
// compare: a set's Format follows registry ID order, which depends on the
// order names were interned.
func renderCell(c core.Cell, reg *sourceset.Registry) string {
	return fmt.Sprintf("%d:%s %v %v", c.D.Kind(), c.D, sortedNames(c.O, reg), sortedNames(c.I, reg))
}

func sortedNames(s sourceset.Set, reg *sourceset.Registry) []string {
	names := s.Names(reg)
	slices.Sort(names)
	return names
}

func renderTagged(p *core.Relation) []string {
	out := make([]string, 0, len(p.Tuples))
	for _, t := range p.Tuples {
		parts := make([]string, len(t))
		for i, c := range t {
			parts[i] = renderCell(c, p.Reg)
		}
		out = append(out, strings.Join(parts, " | "))
	}
	return out
}

func renderPlain(r *rel.Relation) []string {
	out := make([]string, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		parts := make([]string, len(t))
		for i, v := range t {
			parts[i] = fmt.Sprintf("%d:%s", v.Kind(), v)
		}
		out = append(out, strings.Join(parts, " | "))
	}
	return out
}

func sameLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mixedValue draws one value covering every kind and the special data
// (NaN, -0, empty and non-ASCII strings, nulls).
func mixedValue(rng *rand.Rand) rel.Value {
	switch rng.Intn(10) {
	case 0:
		return rel.Null()
	case 1:
		return rel.String("")
	case 2:
		return rel.String("héllo\x00wörld")
	case 3:
		return rel.String(fmt.Sprintf("s%d", rng.Intn(5)))
	case 4:
		return rel.Int(int64(rng.Intn(7)) - 3)
	case 5:
		return rel.Int(math.MinInt64)
	case 6:
		return rel.Float(math.NaN())
	case 7:
		return rel.Float(math.Copysign(0, -1))
	case 8:
		return rel.Bool(rng.Intn(2) == 0)
	default:
		return rel.Float(rng.Float64()*100 - 50)
	}
}

// mixedSet draws a tag set from a pool that includes the empty set and a
// >64-ID overflow set.
func mixedSet(rng *rand.Rand, reg *sourceset.Registry) sourceset.Set {
	switch rng.Intn(5) {
	case 0:
		return sourceset.Empty()
	case 1:
		big := sourceset.Empty()
		for i := 0; i < 70; i++ {
			big = big.With(reg.Intern(fmt.Sprintf("ov%02d", i)))
		}
		return big
	default:
		s := sourceset.Empty()
		for i := 0; i <= rng.Intn(3); i++ {
			s = s.With(reg.Intern(fmt.Sprintf("db%d", rng.Intn(4))))
		}
		return s
	}
}

func randomTaggedBatch(rng *rand.Rand, reg *sourceset.Registry, ncols, nrows int) *core.ColBatch {
	attrs := make([]core.Attr, ncols)
	for i := range attrs {
		attrs[i] = core.Attr{Name: fmt.Sprintf("A%d", i)}
	}
	b := core.NewColBatch("T", reg, attrs)
	row := make(core.Tuple, ncols)
	for r := 0; r < nrows; r++ {
		for c := range row {
			row[c] = core.Cell{D: mixedValue(rng), O: mixedSet(rng, reg), I: mixedSet(rng, reg)}
		}
		b.AppendTuple(row)
	}
	return b
}

// TestRelFrameRoundTrip: plain columnar frames decode back to the same
// values, kinds and -0 bits, across random schemas and batch sizes.
func TestRelFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		ncols := 1 + rng.Intn(4)
		nrows := rng.Intn(12)
		names := make([]string, ncols)
		for i := range names {
			names[i] = fmt.Sprintf("A%d", i)
		}
		schema := rel.SchemaOf(names...)
		b := rel.NewColBatch(schema)
		row := make(rel.Tuple, ncols)
		for r := 0; r < nrows; r++ {
			for c := range row {
				row[c] = mixedValue(rng)
			}
			b.AppendTuple(row)
		}
		payload := rel.AppendFrame(nil, b)
		got, err := rel.DecodeFrame(payload, schema)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		if got.Len() != nrows {
			t.Fatalf("iter %d: decoded %d rows, want %d", iter, got.Len(), nrows)
		}
		for r := 0; r < nrows; r++ {
			for c := 0; c < ncols; c++ {
				w, g := b.Value(r, c), got.Value(r, c)
				if w.Kind() != g.Kind() || !w.Identical(g) {
					t.Fatalf("iter %d: cell (%d,%d): got %v, want %v", iter, r, c, g, w)
				}
				if w.Kind() == rel.KindFloat {
					if math.Float64bits(w.FloatVal()) != math.Float64bits(g.FloatVal()) {
						t.Fatalf("iter %d: cell (%d,%d): float bits changed", iter, r, c)
					}
				}
			}
		}
		// Re-encoding the decoded batch reproduces the payload byte for byte.
		again := rel.AppendFrame(nil, got)
		if string(again) != string(payload) {
			t.Fatalf("iter %d: re-encode diverged", iter)
		}
	}
}

// TestCoreFrameRoundTrip: tagged frames decode into a fresh registry with
// identical cells — data, origin and intermediate sets, >64-source overflow
// sets included.
func TestCoreFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 150; iter++ {
		reg := sourceset.NewRegistry()
		b := randomTaggedBatch(rng, reg, 1+rng.Intn(3), rng.Intn(10))
		payload := core.AppendFrame(nil, b)
		fresh := sourceset.NewRegistry()
		got, err := core.DecodeFrame(payload, b.Name, b.Attrs, fresh)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		want := renderTagged(b.Relation())
		have := renderTagged(got.Relation())
		if !sameLines(want, have) {
			t.Fatalf("iter %d: decoded batch diverged:\ngot:\n%s\nwant:\n%s",
				iter, strings.Join(have, "\n"), strings.Join(want, "\n"))
		}
	}
}

// fixedMediator serves one prebuilt tagged relation — enough mediator to
// exercise the "query" and "queryopen" framing.
type fixedMediator struct {
	p *core.Relation
}

func (m *fixedMediator) Federation() string { return "fixed" }
func (m *fixedMediator) OpenSession(SessionOptions) (SessionInfo, error) {
	return SessionInfo{ID: "s1", Federation: "fixed"}, nil
}
func (m *fixedMediator) CloseSession(string) error { return nil }
func (m *fixedMediator) Query(string, string, bool) (*MediatedAnswer, error) {
	return &MediatedAnswer{Relation: m.p}, nil
}
func (m *fixedMediator) OpenQuery(string, string, bool) (*MediatedStream, error) {
	return &MediatedStream{
		Cursor: core.NewRelationCursor(m.p, 3),
		Diag:   func() federation.Report { return federation.Report{} },
	}, nil
}

// dataOf is the plain relation under a tagged one: the same rows, tags
// dropped.
func dataOf(p *core.Relation) *rel.Relation {
	names := make([]string, len(p.Attrs))
	for i, a := range p.Attrs {
		names[i] = a.Name
	}
	r := rel.NewRelation(p.Name, rel.SchemaOf(names...))
	for _, t := range p.Tuples {
		row := make(rel.Tuple, len(t))
		for i, c := range t {
			row[i] = c.D
		}
		r.Tuples = append(r.Tuples, row)
	}
	return r
}

// maxTagWidth is the largest origin or intermediate set in p.
func maxTagWidth(p *core.Relation) int {
	w := 0
	for _, t := range p.Tuples {
		for _, c := range t {
			w = max(w, len(c.O.IDs()), len(c.I.IDs()))
		}
	}
	return w
}

// TestWireAnswersMatchSource: every client call that returns rows — the
// materialized Execute, ExecutePlan and Query and the streamed Open,
// OpenPlan and OpenQuery — delivers its source relation cell for cell and
// tag for tag, for an empty relation, a one-frame mix of NULL/NaN/-0 values
// and >64-source tag sets, and a relation spanning several stream batches.
func TestWireAnswersMatchSource(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	reg := sourceset.NewRegistry()
	for _, tc := range []struct {
		name  string
		nrows int
	}{{"empty", 0}, {"mixed", 17}, {"multi-batch", 2500}} {
		t.Run(tc.name, func(t *testing.T) {
			tagged := randomTaggedBatch(rng, reg, 3, tc.nrows).Relation()
			tagged.Name = "T"
			if tc.nrows > 0 && maxTagWidth(tagged) <= 64 {
				t.Fatal("fixture has no >64-source tag set")
			}
			plain := dataOf(tagged)
			db := catalog.NewDatabase("DB")
			db.MustCreate("T", plain.Schema)
			if err := db.Insert("T", plain.Tuples...); err != nil {
				t.Fatal(err)
			}
			lqpClient := serveForTest(t, NewServer(db))
			medClient := serveForTest(t, NewMediatorServer(&fixedMediator{p: tagged}))

			plan := lqp.PlanOf(lqp.Retrieve("T"))
			plainCalls := map[string]func() (*rel.Relation, error){
				"Execute":     func() (*rel.Relation, error) { return lqpClient.Execute(lqp.Retrieve("T")) },
				"ExecutePlan": func() (*rel.Relation, error) { return lqpClient.ExecutePlan(plan) },
				"Open": func() (*rel.Relation, error) {
					cur, err := lqpClient.Open(lqp.Retrieve("T"))
					if err != nil {
						return nil, err
					}
					return rel.Drain(cur)
				},
				"OpenPlan": func() (*rel.Relation, error) {
					cur, err := lqpClient.OpenPlan(plan)
					if err != nil {
						return nil, err
					}
					return rel.Drain(cur)
				},
			}
			want := renderPlain(plain)
			for name, call := range plainCalls {
				got, err := call()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(got.Schema.Attrs(), plain.Schema.Attrs()) {
					t.Errorf("%s: schema %v, want %v", name, got.Schema, plain.Schema)
				}
				if have := renderPlain(got); !sameLines(have, want) {
					t.Errorf("%s: %d rows diverged from the source's %d", name, len(have), len(want))
				}
			}

			taggedCalls := map[string]func() (*core.Relation, error){
				"Query": func() (*core.Relation, error) {
					ans, err := medClient.Query("", "q", false)
					if err != nil {
						return nil, err
					}
					return ans.Relation, nil
				},
				"OpenQuery": func() (*core.Relation, error) {
					cur, _, err := medClient.OpenQuery("", "q", false)
					if err != nil {
						return nil, err
					}
					return core.Drain(cur)
				},
			}
			wantTagged := renderTagged(tagged)
			for name, call := range taggedCalls {
				got, err := call()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got.Name != tagged.Name || !reflect.DeepEqual(got.Attrs, tagged.Attrs) {
					t.Errorf("%s: header %s%v, want %s%v", name, got.Name, got.Attrs, tagged.Name, tagged.Attrs)
				}
				if have := renderTagged(got); !sameLines(have, wantTagged) {
					t.Errorf("%s: answer diverged from the source relation:\ngot:\n%s\nwant:\n%s",
						name, strings.Join(have, "\n"), strings.Join(wantTagged, "\n"))
				}
			}
		})
	}
}

// TestBinaryStreamMatchesGob: a tagged answer reaches the client identical
// whether it arrives streamed (one binary frame per batch, each inside its
// own gob frame envelope) or materialized (one binary frame inside the gob
// response envelope). The two alternate on one pooled connection, so the
// gob envelope stream must stay in step around every binary payload. The
// name dates from when tagged rows could also travel as gob rows.
func TestBinaryStreamMatchesGob(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	reg := sourceset.NewRegistry()
	tagged := randomTaggedBatch(rng, reg, 3, 17).Relation()
	tagged.Name = "ANS"
	c := serveForTest(t, NewMediatorServer(&fixedMediator{p: tagged}))

	want := renderTagged(tagged)
	for round := 0; round < 3; round++ {
		cur, _, err := c.OpenQuery("", "q", false)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := core.Drain(cur)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := c.Query("", "q", false)
		if err != nil {
			t.Fatal(err)
		}
		for leg, got := range map[string]*core.Relation{"stream": streamed, "materialized": ans.Relation} {
			if have := renderTagged(got); !sameLines(have, want) {
				t.Fatalf("round %d %s: answer diverged from the source relation:\ngot:\n%s\nwant:\n%s",
					round, leg, strings.Join(have, "\n"), strings.Join(want, "\n"))
			}
		}
	}
	c.mu.Lock()
	live := len(c.live)
	c.mu.Unlock()
	if live != 1 {
		t.Fatalf("alternating streams and round trips used %d connections, want 1", live)
	}
}

// TestPlainStreamMatchesGob: rows sent to an LQP as gob (insert request rows,
// the one place rows still travel as gob) come back unchanged through the
// binary-framed Open stream, whose cursor has the columnar capability. The
// rows mix NULL, NaN, -0 and empty strings and span several stream batches.
func TestPlainStreamMatchesGob(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := dataOf(randomTaggedBatch(rng, sourceset.NewRegistry(), 3, 700).Relation())
	db := catalog.NewDatabase("DB")
	db.MustCreate("T", src.Schema)
	c := serveForTest(t, NewServer(db))
	if err := c.Insert("T", src.Tuples); err != nil {
		t.Fatal(err)
	}

	cur, err := c.Open(lqp.Retrieve("T"))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	cc, ok := cur.(rel.ColCursor)
	if !ok {
		t.Fatal("binary stream cursor is not a rel.ColCursor")
	}
	got := &rel.Relation{Schema: src.Schema}
	batches := 0
	for {
		cb, err := cc.NextCol()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		batches++
		got.Tuples = append(got.Tuples, cb.Rows()...)
	}
	if batches < 2 {
		t.Fatalf("%d rows arrived in %d batch(es), want several", len(got.Tuples), batches)
	}
	if !sameLines(renderPlain(got), renderPlain(src)) {
		t.Fatalf("binary stream (%d rows) diverged from the gob-inserted rows (%d rows)", len(got.Tuples), len(src.Tuples))
	}
}

// serveForTest listens with srv on loopback and dials a client to it, both
// closed when the test ends.
func serveForTest(t *testing.T, srv *Server) *Client {
	t.Helper()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}
