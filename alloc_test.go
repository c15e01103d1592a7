package repro

import (
	"runtime"
	"testing"

	"repro/internal/tables"
)

// figure1AllocBudget bounds the mean bytes allocated by one in-process
// Figure 1 query (SQL text to tagged answer, the BenchmarkFigure1EndToEnd-
// InProcess path). The query allocates about 195 KB; a relation arena that
// zeroes a full 4096-cell chunk per batch pushes it to several MB.
const figure1AllocBudget = 1 << 20

// TestFigure1AllocGuard gates the per-query allocation of the paper's
// Figure 1 query on a deterministic counter (runtime TotalAlloc), so a
// per-query fixed cost in the PQP path fails the ordinary test run.
func TestFigure1AllocGuard(t *testing.T) {
	_, q := paperPQP(t)
	run := func() {
		res, err := q.QuerySQL(tables.PaperSQL)
		if err != nil {
			t.Fatal(err)
		}
		if res.Relation.Cardinality() != 3 {
			t.Fatalf("Figure 1 answer has %d tuples, want 3", res.Relation.Cardinality())
		}
	}
	run() // warm the resolver intern tables and the plan cache
	const queries = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < queries; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / queries
	t.Logf("Figure 1 query allocates %d B per run", per)
	if per > figure1AllocBudget {
		t.Fatalf("Figure 1 query allocates %d B per run, budget %d B", per, figure1AllocBudget)
	}
}
