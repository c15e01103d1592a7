package core

import (
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/identity"
	"repro/internal/rel"
	"repro/internal/sourceset"
)

// Par* property suite: the partitioned parallel operators join the serial
// hash operators, the streaming operators and the string-keyed Ref*
// reference operators in the cell-for-cell parity contract — and make
// a stronger promise on top: row order identical to the serial engine, at
// every partition count, deterministically across runs. Partition counts
// cover 1 (degenerate), 2, 7 (non-power-of-two: the radix split must not
// assume power-of-two masks) and 16 (more partitions than tuples).

var parTestParts = []int{1, 2, 7, 16}

// wantSameOrdered asserts two relations agree cell for cell in the same
// row order — the parallel engine's ordered-concat guarantee, stronger
// than wantSameRendered's order-insensitive parity.
func wantSameOrdered(t *testing.T, label string, i int, got, ref *Relation) {
	t.Helper()
	gr, rr := render(got), render(ref)
	if !equalStrings(gr, rr) {
		t.Fatalf("iteration %d: %s: parallel row order or cells diverged from serial:\npar:\n%s\nserial:\n%s",
			i, label, strings.Join(gr, "\n"), strings.Join(rr, "\n"))
	}
}

// TestPropertyParOpsMatchAllEngines: for random wide inputs (mixed kinds,
// NaN/-0, >64-source tag sets) every Par* operator must equal the serial
// operator row for row, and the streaming and reference engines cell for
// cell, at all partition counts.
func TestPropertyParOpsMatchAllEngines(t *testing.T) {
	g, reg := newWideGen(80)
	alg := NewAlgebra(nil)
	for i := 0; i < 200; i++ {
		p1 := g.wideRelation(reg, "A", "B")
		p2 := g.wideRelation(reg, "A", "B")
		for _, parts := range parTestParts {
			// Union.
			ser, err := alg.Union(p1, p2)
			if err != nil {
				t.Fatal(err)
			}
			par, err := alg.ParUnion(p1, p2, parts)
			if err != nil {
				t.Fatal(err)
			}
			wantSameOrdered(t, "par union", i, par, ser)
			ref, err := alg.RefUnion(p1, p2)
			if err != nil {
				t.Fatal(err)
			}
			wantSameRendered(t, "par union vs reference", i, par, ref)
			str := mustDrain(alg.StreamUnion(cursorOver(p1), cursorOver(p2)))
			wantSameRendered(t, "par union vs streaming", i, par, str)

			// Difference.
			ser, err = alg.Difference(p1, p2)
			if err != nil {
				t.Fatal(err)
			}
			par, err = alg.ParDifference(p1, p2, parts)
			if err != nil {
				t.Fatal(err)
			}
			wantSameOrdered(t, "par difference", i, par, ser)
			ref, err = alg.RefDifference(p1, p2)
			if err != nil {
				t.Fatal(err)
			}
			wantSameRendered(t, "par difference vs reference", i, par, ref)
			str = mustDrain(alg.StreamDifference(cursorOver(p1), cursorOver(p2)))
			wantSameRendered(t, "par difference vs streaming", i, par, str)

			// Intersect.
			ser, err = alg.Intersect(p1, p2)
			if err != nil {
				t.Fatal(err)
			}
			par, err = alg.ParIntersect(p1, p2, parts)
			if err != nil {
				t.Fatal(err)
			}
			wantSameOrdered(t, "par intersect", i, par, ser)
			ref, err = alg.RefIntersect(p1, p2)
			if err != nil {
				t.Fatal(err)
			}
			wantSameRendered(t, "par intersect vs reference", i, par, ref)
			str = mustDrain(alg.StreamIntersect(cursorOver(p1), cursorOver(p2)))
			wantSameRendered(t, "par intersect vs streaming", i, par, str)

			// Project.
			ser, err = alg.Project(p1, []string{"B", "A"})
			if err != nil {
				t.Fatal(err)
			}
			par, err = alg.ParProject(p1, []string{"B", "A"}, parts)
			if err != nil {
				t.Fatal(err)
			}
			wantSameOrdered(t, "par project", i, par, ser)
			ref, err = alg.RefProject(p1, []string{"B", "A"})
			if err != nil {
				t.Fatal(err)
			}
			wantSameRendered(t, "par project vs reference", i, par, ref)
			str = mustDrain(alg.StreamProject(cursorOver(p1), []string{"B", "A"}))
			wantSameRendered(t, "par project vs streaming", i, par, str)
		}
	}
}

// TestPropertyParJoinMatchesAllEngines runs the join parity under every
// resolver kind (exact, case-folding, synonym groups) — the partitioned
// probe interns canonical IDs concurrently.
func TestPropertyParJoinMatchesAllEngines(t *testing.T) {
	resolvers := []identity.Resolver{
		identity.Exact{},
		identity.CaseFold{},
		identity.NewSynonyms(identity.CaseFold{},
			[]rel.Value{rel.String("a"), rel.String("b")},
			[]rel.Value{rel.String("c"), rel.String("d")},
		),
	}
	for ri, res := range resolvers {
		g, reg := newWideGen(int64(84 + ri))
		alg := NewAlgebra(res)
		for i := 0; i < 120; i++ {
			p1 := g.wideRelation(reg, "K/PK", "V")
			p2 := g.wideRelation(reg, "K2/PK", "W")
			ser, err := alg.Join(p1, "K", rel.ThetaEQ, p2, "K2")
			if err != nil {
				t.Fatal(err)
			}
			for _, parts := range parTestParts {
				par, err := alg.ParJoin(p1, "K", rel.ThetaEQ, p2, "K2", parts)
				if err != nil {
					t.Fatal(err)
				}
				wantSameOrdered(t, "par join", i, par, ser)
			}
			ref, err := alg.RefJoin(p1, "K", rel.ThetaEQ, p2, "K2")
			if err != nil {
				t.Fatal(err)
			}
			wantSameRendered(t, "par join vs reference", i, ser, ref)
			str := mustDrain(alg.StreamJoin(cursorOver(p1), "K", rel.ThetaEQ, cursorOver(p2), "K2"))
			wantSameRendered(t, "par join vs streaming", i, ser, str)
		}
	}
}

// parBigInput builds a pair of n-tuple relations with heavy duplicate data
// (every entity appears several times across both) and varied tag sets —
// big enough that partitioned runs on a real pool exercise true concurrent
// builds under -race.
func parBigInput(reg *sourceset.Registry, n int) (*Relation, *Relation) {
	mk := func(name string, base int) *Relation {
		p := NewRelation(name, reg, attrs("KEY/PK", "CAT", "VAL")...)
		for i := 0; i < n; i++ {
			e := base + i/3 // each entity thrice per relation
			origin := sourceset.Of(sourceset.ID(i % 90))
			inter := sourceset.Of(sourceset.ID((i + 7) % 90))
			row := p.NewRow(3)
			row[0] = Cell{D: rel.String("E" + string(rune('A'+e%26)) + string(rune('A'+(e/26)%26))), O: origin}
			row[1] = Cell{D: rel.Int(int64(e % 23)), O: origin, I: inter}
			row[2] = Cell{D: rel.Int(int64(e)), O: origin}
			p.Tuples = append(p.Tuples, row)
		}
		return p
	}
	return mk("P1", 0), mk("P2", n/6)
}

// TestParOpsDeterministicAcrossRunsAndParts: on a shared real worker pool,
// every partitioned operator's output — order included — is identical
// across repeated runs and across partition counts 1, 2, 7 and 16, and
// equal to the serial engine. This is the ordered-concat determinism the
// engine promises (and, under -race, the lock-freedom proof for the
// per-partition builds).
func TestParOpsDeterministicAcrossRunsAndParts(t *testing.T) {
	reg := sourceset.NewRegistry()
	for i := 0; i < 90; i++ {
		reg.Intern(workloadDBName(i))
	}
	p1, p2 := parBigInput(reg, 3000)
	serialAlg := NewAlgebra(nil)
	parAlg := NewAlgebra(nil)
	parAlg.SetParallel(&Parallel{Pool: exec.NewPool(4)})
	ops := []struct {
		name   string
		serial func() (*Relation, error)
		par    func(parts int) (*Relation, error)
	}{
		{"union", func() (*Relation, error) { return serialAlg.Union(p1, p2) },
			func(parts int) (*Relation, error) { return parAlg.ParUnion(p1, p2, parts) }},
		{"difference", func() (*Relation, error) { return serialAlg.Difference(p1, p2) },
			func(parts int) (*Relation, error) { return parAlg.ParDifference(p1, p2, parts) }},
		{"intersect", func() (*Relation, error) { return serialAlg.Intersect(p1, p2) },
			func(parts int) (*Relation, error) { return parAlg.ParIntersect(p1, p2, parts) }},
		{"project", func() (*Relation, error) { return serialAlg.Project(p1, []string{"CAT", "KEY"}) },
			func(parts int) (*Relation, error) { return parAlg.ParProject(p1, []string{"CAT", "KEY"}, parts) }},
		{"join", func() (*Relation, error) { return serialAlg.Join(p1, "KEY", rel.ThetaEQ, p2, "KEY") },
			func(parts int) (*Relation, error) { return parAlg.ParJoin(p1, "KEY", rel.ThetaEQ, p2, "KEY", parts) }},
	}
	for _, op := range ops {
		ser, err := op.serial()
		if err != nil {
			t.Fatal(err)
		}
		if len(ser.Tuples) == 0 {
			t.Fatalf("%s: degenerate fixture (empty serial result)", op.name)
		}
		for _, parts := range parTestParts {
			for run := 0; run < 2; run++ {
				par, err := op.par(parts)
				if err != nil {
					t.Fatal(err)
				}
				wantSameOrdered(t, op.name+" (parts/run sweep)", parts*10+run, par, ser)
			}
		}
	}
}

// TestAutoDispatchAboveThreshold: a parallel-configured algebra must
// produce serial-identical results from the plain entry points both below
// the threshold (serial path) and above it (partitioned path), for the
// materializing and streaming engines.
func TestAutoDispatchAboveThreshold(t *testing.T) {
	reg := sourceset.NewRegistry()
	for i := 0; i < 90; i++ {
		reg.Intern(workloadDBName(i))
	}
	serialAlg := NewAlgebra(nil)
	parAlg := NewAlgebra(nil)
	parAlg.SetParallel(&Parallel{Pool: exec.NewPool(4), Threshold: 64, Partitions: 7})
	for _, n := range []int{20, 3000} { // below and above Threshold=64
		p1, p2 := parBigInput(reg, n)
		ser, err := serialAlg.Union(p1, p2)
		if err != nil {
			t.Fatal(err)
		}
		par, err := parAlg.Union(p1, p2)
		if err != nil {
			t.Fatal(err)
		}
		wantSameOrdered(t, "auto union", n, par, ser)

		ser, err = serialAlg.Join(p1, "KEY", rel.ThetaEQ, p2, "KEY")
		if err != nil {
			t.Fatal(err)
		}
		par, err = parAlg.Join(p1, "KEY", rel.ThetaEQ, p2, "KEY")
		if err != nil {
			t.Fatal(err)
		}
		wantSameOrdered(t, "auto join", n, par, ser)

		// Streaming: the parallel-configured algebra's StreamJoin builds
		// partitioned and probes through the ParallelCursor; row order must
		// still match the serial streaming engine's.
		serStr := mustDrain(serialAlg.StreamJoin(cursorOver(p1), "KEY", rel.ThetaEQ, cursorOver(p2), "KEY"))
		parStr := mustDrain(parAlg.StreamJoin(cursorOver(p1), "KEY", rel.ThetaEQ, cursorOver(p2), "KEY"))
		wantSameOrdered(t, "auto stream join", n, parStr, serStr)

		serStr = mustDrain(serialAlg.StreamDifference(cursorOver(p1), cursorOver(p2)))
		parStr = mustDrain(parAlg.StreamDifference(cursorOver(p1), cursorOver(p2)))
		wantSameOrdered(t, "auto stream difference", n, parStr, serStr)
	}
}

// TestParallelCursorPreservesOrder: batches processed on a real pool come
// back in input order whatever order the workers finish in.
func TestParallelCursorPreservesOrder(t *testing.T) {
	reg := sourceset.NewRegistry()
	src := reg.Intern("D0")
	p := NewRelation("P", reg, attrs("A")...)
	for i := 0; i < 5000; i++ {
		p.Tuples = append(p.Tuples, Tuple{Cell{D: rel.Int(int64(i)), O: sourceset.Of(src)}})
	}
	in := NewRelationCursor(p, 16)
	c := ParallelCursor(in, exec.NewPool(4), 8, func(batch []Tuple, emit func([]Tuple) bool) error {
		// Uneven work: later batches finish first without re-sequencing.
		if batch[0][0].D.IntVal()%7 == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		// Emit in two chunks: chunk order within a slot must be kept too.
		emit(batch[:len(batch)/2])
		emit(batch[len(batch)/2:])
		return nil
	})
	out, err := Drain(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tuples) != 5000 {
		t.Fatalf("drained %d rows, want 5000", len(out.Tuples))
	}
	for i, tup := range out.Tuples {
		if tup[0].D.IntVal() != int64(i) {
			t.Fatalf("row %d out of order: %v", i, tup[0].D)
		}
	}
}

// TestParallelCursorPropagatesErrors: fn errors latch, in input order.
func TestParallelCursorPropagatesErrors(t *testing.T) {
	reg := sourceset.NewRegistry()
	p := NewRelation("P", reg, attrs("A")...)
	for i := 0; i < 100; i++ {
		p.Tuples = append(p.Tuples, Tuple{Cell{D: rel.Int(int64(i))}})
	}
	boom := errors.New("boom")
	c := ParallelCursor(NewRelationCursor(p, 10), exec.NewPool(2), 4, func(batch []Tuple, emit func([]Tuple) bool) error {
		if batch[0][0].D.IntVal() >= 50 {
			return boom
		}
		emit(batch)
		return nil
	})
	defer c.Close()
	rows := 0
	for {
		batch, err := c.Next()
		if err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("error = %v, want boom", err)
			}
			break
		}
		rows += len(batch)
	}
	if rows != 50 {
		t.Fatalf("delivered %d rows before the error, want 50", rows)
	}
	if _, err := c.Next(); !errors.Is(err, boom) {
		t.Fatal("errors must latch")
	}
}

// closeCounterCursor records Close calls on a wrapped cursor (atomically:
// an abandoning Close may hand the inner close to the dispatcher).
type closeCounterCursor struct {
	Cursor
	closes atomic.Int32
}

func (c *closeCounterCursor) Close() error { c.closes.Add(1); return c.Cursor.Close() }

// TestParallelCursorEarlyClose: closing before exhaustion stops the
// dispatcher and closes the input exactly once — no goroutine leak, no
// deadlock on a full slot queue (run under -race).
func TestParallelCursorEarlyClose(t *testing.T) {
	reg := sourceset.NewRegistry()
	p := NewRelation("P", reg, attrs("A")...)
	for i := 0; i < 100000; i++ {
		p.Tuples = append(p.Tuples, Tuple{Cell{D: rel.Int(int64(i))}})
	}
	inner := &closeCounterCursor{Cursor: NewRelationCursor(p, 8)}
	c := ParallelCursor(inner, exec.NewPool(2), 2, func(batch []Tuple, emit func([]Tuple) bool) error {
		emit(batch)
		return nil
	})
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	deadline := time.Now().Add(5 * time.Second)
	for inner.closes.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := inner.closes.Load(); n != 1 {
		t.Fatalf("inner cursor closed %d times, want 1", n)
	}
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("Next after Close = %v, want EOF", err)
	}
}
