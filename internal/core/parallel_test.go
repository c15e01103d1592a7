package core

import (
	"errors"
	"fmt"
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

// parCase is one input pair for the partitioned stream builds: P1 probes
// (or is filtered), P2 is the build side, joined on X = Y.
type parCase struct {
	res    identity.Resolver
	p1, p2 *Relation
	x, y   string
}

// parStreamOps are the two streaming operators that build partitioned on a
// parallel-configured algebra, with their serial materializing and Ref*
// counterparts.
var parStreamOps = []struct {
	name   string
	stream func(a *Algebra, in parCase) (Cursor, error)
	mat    func(a *Algebra, in parCase) (*Relation, error)
	ref    func(a *Algebra, in parCase) (*Relation, error)
}{
	{"join",
		func(a *Algebra, in parCase) (Cursor, error) {
			return a.StreamJoin(cursorOver(in.p1), in.x, rel.ThetaEQ, cursorOver(in.p2), in.y)
		},
		func(a *Algebra, in parCase) (*Relation, error) { return a.Join(in.p1, in.x, rel.ThetaEQ, in.p2, in.y) },
		func(a *Algebra, in parCase) (*Relation, error) {
			return a.RefJoin(in.p1, in.x, rel.ThetaEQ, in.p2, in.y)
		}},
	{"difference",
		func(a *Algebra, in parCase) (Cursor, error) {
			return a.StreamDifference(cursorOver(in.p1), cursorOver(in.p2))
		},
		func(a *Algebra, in parCase) (*Relation, error) { return a.Difference(in.p1, in.p2) },
		func(a *Algebra, in parCase) (*Relation, error) { return a.RefDifference(in.p1, in.p2) }},
}

// wantSameOrdered asserts two relations agree cell for cell in the same
// row order — the partitioned builds' promise, stronger than
// wantSameRendered's order-insensitive parity.
func wantSameOrdered(t *testing.T, label string, i int, got, ref *Relation) {
	t.Helper()
	gr, rr := render(got), render(ref)
	if !equalStrings(gr, rr) {
		t.Fatalf("iteration %d: %s: parallel row order or cells diverged from serial:\npar:\n%s\nserial:\n%s",
			i, label, strings.Join(gr, "\n"), strings.Join(rr, "\n"))
	}
}

// checkParStream runs op twice on a fresh pool of each worker count at
// each threshold and holds every run to the serial streaming answer ser
// row for row. The pool's counters must show the partitioned path ran
// exactly when the build side reaches the threshold.
func checkParStream(t *testing.T, k int, op string, stream func(*Algebra, parCase) (Cursor, error),
	in parCase, ser *Relation, workers, thresholds []int) {
	t.Helper()
	for _, w := range workers {
		for _, threshold := range thresholds {
			pool := exec.NewPool(w)
			parAlg := NewAlgebra(in.res)
			parAlg.SetParallel(&Parallel{Pool: pool, Threshold: threshold})
			partitioned := len(in.p2.Tuples) >= threshold
			for run := 0; run < 2; run++ {
				label := fmt.Sprintf("%s workers=%d threshold=%d run=%d", op, w, threshold, run)
				before := pool.Snapshot()
				got := mustDrain(stream(parAlg, in))
				after := pool.Snapshot()
				if ran := after.Helpers+after.Submits > before.Helpers+before.Submits; ran != partitioned {
					t.Fatalf("iteration %d: %s: pool used = %v, want %v (build side %d tuples)",
						k, label, ran, partitioned, len(in.p2.Tuples))
				}
				wantSameOrdered(t, label, k, got, ser)
			}
		}
	}
}

// TestPropertyParOpsMatchAllEngines: for random wide inputs (mixed kinds,
// NaN/-0, >64-source tag sets) StreamDifference on a parallel-configured
// algebra — pools of 2, 3 and 7 workers (7: the radix split must not assume
// power-of-two partition counts), at Threshold 1 where every non-empty
// build partitions and at Threshold 64 where smaller ones stay serial —
// equals the serial streaming operator row for row, and the materializing
// and Ref* operators cell for cell. StreamUnion, StreamIntersect and
// StreamProject stay serial on that algebra: same rows, pool untouched.
func TestPropertyParOpsMatchAllEngines(t *testing.T) {
	g, reg := newWideGen(80)
	serialAlg := NewAlgebra(nil)
	pool := exec.NewPool(3)
	parAlg := NewAlgebra(nil)
	parAlg.SetParallel(&Parallel{Pool: pool, Threshold: 1})
	serialOnly := []struct {
		name   string
		stream func(a *Algebra, p1, p2 *Relation) (Cursor, error)
	}{
		{"union", func(a *Algebra, p1, p2 *Relation) (Cursor, error) {
			return a.StreamUnion(cursorOver(p1), cursorOver(p2))
		}},
		{"intersect", func(a *Algebra, p1, p2 *Relation) (Cursor, error) {
			return a.StreamIntersect(cursorOver(p1), cursorOver(p2))
		}},
		{"project", func(a *Algebra, p1, _ *Relation) (Cursor, error) {
			return a.StreamProject(cursorOver(p1), []string{"B", "A"})
		}},
	}
	diff := parStreamOps[1]
	for i := 0; i < 100; i++ {
		in := parCase{p1: g.wideRelation(reg, "A", "B"), p2: g.wideRelation(reg, "A", "B")}
		ser := mustDrain(diff.stream(serialAlg, in))
		mat, err := diff.mat(serialAlg, in)
		if err != nil {
			t.Fatal(err)
		}
		wantSameRendered(t, "difference vs materializing", i, ser, mat)
		ref, err := diff.ref(serialAlg, in)
		if err != nil {
			t.Fatal(err)
		}
		wantSameRendered(t, "difference vs reference", i, ser, ref)
		checkParStream(t, i, "difference", diff.stream, in, ser, []int{2, 3, 7}, []int{1, 64})

		for _, op := range serialOnly {
			want := mustDrain(op.stream(serialAlg, in.p1, in.p2))
			before := pool.Snapshot()
			got := mustDrain(op.stream(parAlg, in.p1, in.p2))
			after := pool.Snapshot()
			if after.Helpers+after.Submits != before.Helpers+before.Submits {
				t.Fatalf("iteration %d: %s used the pool; only join and difference builds partition", i, op.name)
			}
			wantSameOrdered(t, op.name+" on a parallel-configured algebra", i, got, want)
		}
	}
}

// TestPropertyParJoinMatchesAllEngines runs the join parity under every
// resolver kind (exact, case-folding, synonym groups) — the partitioned
// build interns canonical IDs concurrently and the probe fans out through
// ParallelCursor. Each run equals serial StreamJoin row for row; serial
// StreamJoin equals Join and RefJoin cell for cell.
func TestPropertyParJoinMatchesAllEngines(t *testing.T) {
	resolvers := []identity.Resolver{
		identity.Exact{},
		identity.CaseFold{},
		identity.NewSynonyms(identity.CaseFold{},
			[]rel.Value{rel.String("a"), rel.String("b")},
			[]rel.Value{rel.String("c"), rel.String("d")},
		),
	}
	join := parStreamOps[0]
	for ri, res := range resolvers {
		g, reg := newWideGen(int64(84 + ri))
		alg := NewAlgebra(res)
		for i := 0; i < 60; i++ {
			in := parCase{res, g.wideRelation(reg, "K/PK", "V"), g.wideRelation(reg, "K2/PK", "W"), "K", "K2"}
			ser := mustDrain(join.stream(alg, in))
			mat, err := join.mat(alg, in)
			if err != nil {
				t.Fatal(err)
			}
			wantSameRendered(t, "join vs materializing", i, ser, mat)
			ref, err := join.ref(alg, in)
			if err != nil {
				t.Fatal(err)
			}
			wantSameRendered(t, "join vs reference", i, ser, ref)
			checkParStream(t, i, fmt.Sprintf("join resolver=%d", ri), join.stream, in, ser, []int{2, 3, 7}, []int{1, 64})
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

// bigParCase is parBigInput's n-tuple pair, joined KEY = KEY.
func bigParCase(n int) parCase {
	reg := sourceset.NewRegistry()
	for i := 0; i < 90; i++ {
		reg.Intern(workloadDBName(i))
	}
	p1, p2 := parBigInput(reg, n)
	return parCase{nil, p1, p2, "KEY", "KEY"}
}

// TestParOpsDeterministicAcrossRunsAndParts: on duplicate-heavy 3000-tuple
// inputs, every partitioned stream build's output — order included — is
// identical across repeated runs and across partition counts 2, 3 and 7
// (one partition per pool worker), and equal to the serial engine. This is
// the ordered-output determinism the builds promise (and, under -race, the
// lock-freedom proof for the per-partition builds).
func TestParOpsDeterministicAcrossRunsAndParts(t *testing.T) {
	in := bigParCase(3000)
	serialAlg := NewAlgebra(nil)
	for k, op := range parStreamOps {
		ser := mustDrain(op.stream(serialAlg, in))
		if len(ser.Tuples) == 0 {
			t.Fatalf("%s: degenerate fixture (empty serial result)", op.name)
		}
		checkParStream(t, k, op.name, op.stream, in, ser, []int{2, 3, 7}, []int{1})
	}
}

// TestAutoDispatchAboveThreshold: a parallel-configured algebra (Threshold
// 64) must produce serial-identical results from the plain entry points
// both below the threshold (serial build) and above it (partitioned
// build) — the pool's counters show which ran. Its materializing Join and
// Difference stay serial at either size.
func TestAutoDispatchAboveThreshold(t *testing.T) {
	serialAlg := NewAlgebra(nil)
	for _, n := range []int{20, 3000} { // below and above Threshold=64
		in := bigParCase(n)
		for _, op := range parStreamOps {
			ser := mustDrain(op.stream(serialAlg, in))
			checkParStream(t, n, "auto stream "+op.name, op.stream, in, ser, []int{4}, []int{64})

			want, err := op.mat(serialAlg, in)
			if err != nil {
				t.Fatal(err)
			}
			pool := exec.NewPool(4)
			parAlg := NewAlgebra(nil)
			parAlg.SetParallel(&Parallel{Pool: pool, Threshold: 64})
			got, err := op.mat(parAlg, in)
			if err != nil {
				t.Fatal(err)
			}
			if s := pool.Snapshot(); s.Helpers+s.Submits != 0 {
				t.Fatalf("n=%d: materializing %s used the pool", n, op.name)
			}
			wantSameOrdered(t, "auto materializing "+op.name, n, got, want)
		}
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
