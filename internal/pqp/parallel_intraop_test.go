package pqp

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// Engine parity at the PQP level for intra-operator parallelism: the same
// queries over a federation big enough to cross the cost threshold must
// produce cell-for-cell identical answers — row order included — from a
// parallel-configured streaming PQP and a parallel-disabled one. Only the
// StreamJoin and StreamDifference builds partition — here the MINUS query's
// build — and the pool's helper count proves a query reached one. Run under the CI -race job, this
// also holds the shared worker pool to the data-race contract.
func TestIntraOpParallelEnginesMatchSerial(t *testing.T) {
	f := workload.New(workload.Config{Databases: 2, Entities: 20000, Overlap: 0.6, Categories: 5, Seed: 9})
	queries := []string{
		// Union of two big selections: the Union operands carry ~1/5 of
		// 20k entities each, above the 1k threshold set below.
		`(PENTITY [CAT = "cat1"]) UNION (PENTITY [CAT = "cat2"])`,
		// Difference and intersection of overlapping selections (CAT maps
		// into every database, so both operands merge to the same degree).
		`(PENTITY [CAT >= "cat1"]) MINUS (PENTITY [CAT = "cat3"])`,
		`(PENTITY [CAT >= "cat1"]) INTERSECT (PENTITY [CAT <= "cat3"])`,
		// Projection collapsing 20k rows onto the CAT domain.
		`PENTITY [CAT, KEY]`,
	}
	serial := New(f.Schema, f.Registry, nil, f.LQPs())
	serial.SetParallel(-1, 0) // parallel path off: the serial reference
	par := New(f.Schema, f.Registry, nil, f.LQPs())
	par.SetParallel(4, 1024)
	for _, qt := range queries {
		want, err := serial.QueryAlgebra(qt)
		if err != nil {
			t.Fatalf("%s: serial: %v", qt, err)
		}
		got, err := par.QueryAlgebra(qt)
		if err != nil {
			t.Fatalf("%s: parallel: %v", qt, err)
		}
		if a, b := strings.Join(render(want.Relation), "\n"), strings.Join(render(got.Relation), "\n"); a != b {
			t.Errorf("%s: parallel answer diverged from serial", qt)
		}
	}
	if par.Pool().Snapshot().Helpers == 0 {
		t.Error("no query reached a partitioned build: the pool never started a helper")
	}
}

// TestParallelMatchesSerial: the paper's worked query, run by the streaming
// engine with every join and difference build forced onto the partitioned
// path (threshold 1), answers cell for cell like the serial materializing
// engine: the two engines at the two ends of the configuration space.
func TestParallelMatchesSerial(t *testing.T) {
	q := newPQP(t)
	q.SetParallel(2, 1)
	res, err := q.QuerySQL(`SELECT ONAME, CEO FROM PORGANIZATION, PALUMNUS WHERE CEO = ANAME AND ONAME IN
		(SELECT ONAME FROM PCAREER WHERE AID# IN
		(SELECT AID# FROM PALUMNUS WHERE DEGREE = "MBA"))`)
	if err != nil {
		t.Fatal(err)
	}
	serial := newPQP(t)
	serial.SetParallel(-1, 0)
	mat, err := serial.ExecuteMaterialized(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Cardinality() == 0 {
		t.Fatal("paper query answered nothing")
	}
	a, b := strings.Join(render(res.Relation), "\n"), strings.Join(render(mat), "\n")
	if a != b {
		t.Errorf("parallel streaming answer differs:\nserial materializing:\n%s\nparallel streaming:\n%s", b, a)
	}
}
