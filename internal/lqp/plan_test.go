package lqp

import (
	"io"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/rel"
)

func planDB(t *testing.T) *catalog.Database {
	t.Helper()
	db := catalog.NewDatabase("XD")
	db.MustCreate("T", rel.SchemaOf("K", "C", "V"), "K")
	rows := make([]rel.Tuple, 0, 600)
	for i := 0; i < 600; i++ {
		cat := "a"
		if i%3 == 0 {
			cat = "b"
		}
		rows = append(rows, rel.Tuple{rel.Int(int64(i)), rel.String(cat), rel.Int(int64(i * 2))})
	}
	if err := db.Insert("T", rows...); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPlanValidateAndString(t *testing.T) {
	p := PlanOf(Retrieve("T"), Select("T", "C", rel.ThetaEQ, rel.String("b")), Project("T", "V"))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != `T[C = "b"][V]` {
		t.Errorf("plan renders %q", got)
	}
	if !p.Mediates() {
		t.Error("plan with a pushed Select must mediate")
	}
	if PlanOf(Select("T", "C", rel.ThetaEQ, rel.String("b")), Project("T", "V")).Mediates() {
		t.Error("base Select must not mediate (only pushed steps do)")
	}
	if err := (Plan{}).Validate(); err == nil {
		t.Error("empty plan accepted")
	}
	if err := (Plan{Ops: []Op{{Kind: OpRetrieve}}}).Validate(); err == nil {
		t.Error("plan without a base relation accepted")
	}
}

// TestLocalExecutePlanMatchesStepwise: the fused pipeline equals the
// step-by-step composition, materialized and streamed.
func TestLocalExecutePlanMatchesStepwise(t *testing.T) {
	l := NewLocal(planDB(t))
	p := PlanOf(Retrieve("T"), Select("T", "C", rel.ThetaEQ, rel.String("b")), Project("T", "V"))

	want, err := l.Execute(Retrieve("T"))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range p.Steps() {
		if want, err = ApplyOp(want, op); err != nil {
			t.Fatal(err)
		}
	}
	got, err := l.ExecutePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema.String() != want.Schema.String() || len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("plan result %s×%d, want %s×%d", got.Schema, len(got.Tuples), want.Schema, len(want.Tuples))
	}
	for i := range want.Tuples {
		if !got.Tuples[i].Identical(want.Tuples[i]) {
			t.Fatalf("row %d differs: %v vs %v", i, got.Tuples[i], want.Tuples[i])
		}
	}

	cur, err := l.OpenPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := rel.Drain(cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed.Tuples) != len(want.Tuples) {
		t.Fatalf("streamed %d rows, want %d", len(streamed.Tuples), len(want.Tuples))
	}
}

// TestOpenPlanFilterOnlyStreams: a filter-only plan streams without
// materializing (cursor yields multiple batches).
func TestOpenPlanFilterOnlyStreams(t *testing.T) {
	l := NewLocal(planDB(t))
	cur, err := l.OpenPlan(PlanOf(Retrieve("T"), Select("T", "C", rel.ThetaEQ, rel.String("a"))))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	rows := 0
	for {
		batch, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rows += len(batch)
	}
	if rows != 400 {
		t.Errorf("filtered stream yielded %d rows, want 400", rows)
	}
}

// bareLQP implements only the core LQP interface.
type bareLQP struct{ inner *Local }

func (b bareLQP) Name() string                         { return b.inner.Name() }
func (b bareLQP) Relations() ([]string, error)         { return b.inner.Relations() }
func (b bareLQP) Execute(op Op) (*rel.Relation, error) { return b.inner.Execute(op) }

// TestExecutePlanOnFallback: a capability-less LQP still answers plans —
// the base op runs remotely, the steps apply caller-side.
func TestExecutePlanOnFallback(t *testing.T) {
	bare := bareLQP{inner: NewLocal(planDB(t))}
	if CanPush(bare) {
		t.Fatal("bare LQP claims the pushdown capability")
	}
	p := PlanOf(Retrieve("T"), Select("T", "C", rel.ThetaEQ, rel.String("b")))
	r, err := ExecutePlanOn(bare, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tuples) != 200 {
		t.Errorf("fallback plan yielded %d rows, want 200", len(r.Tuples))
	}
	cur, err := OpenPlanOn(bare, p)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := rel.Drain(cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed.Tuples) != 200 {
		t.Errorf("fallback stream yielded %d rows, want 200", len(streamed.Tuples))
	}
}

// TestCountingMetersFilteredTransfer: Counting charges transfer (cells,
// rows, latency batches) for the rows a pushed plan actually returns, not
// for the base relation.
func TestCountingMetersFilteredTransfer(t *testing.T) {
	c := NewCounting(NewLocal(planDB(t)))
	full, err := c.Execute(Retrieve("T"))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.CellsTransferred(); got != int64(len(full.Tuples)*3) {
		t.Errorf("retrieve transferred %d cells, want %d", got, len(full.Tuples)*3)
	}
	c.Reset()

	p := PlanOf(Retrieve("T"), Select("T", "C", rel.ThetaEQ, rel.String("b")), Project("T", "V"))
	r, err := c.ExecutePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.CellsTransferred(), int64(len(r.Tuples)); got != want {
		t.Errorf("pushed plan transferred %d cells, want %d (filtered rows × 1 column)", got, want)
	}
	if got := c.RowsTransferred(); got != int64(len(r.Tuples)) {
		t.Errorf("pushed plan transferred %d rows, want %d", got, len(r.Tuples))
	}
	if plans := c.Plans(); len(plans) != 1 || len(plans[0].Steps()) != 2 {
		t.Errorf("recorded plans = %v", plans)
	}
	// The base op of the plan still counts as one operation.
	if c.Total() != 1 || c.Count(OpRetrieve) != 1 {
		t.Errorf("op counts: total=%d retrieve=%d", c.Total(), c.Count(OpRetrieve))
	}

	// Streaming path: the metered cursor books each filtered batch.
	c.Reset()
	cur, err := c.OpenPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := rel.Drain(cur)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.CellsTransferred(), int64(len(streamed.Tuples)); got != want {
		t.Errorf("streamed pushed plan transferred %d cells, want %d", got, want)
	}
}

// TestCountingLatencyPerFilteredBatch: with injected latency, a pushed plan
// whose result fits one batch pays one latency unit; a wholesale retrieve
// of the same relation pays one per batch of the full relation. The test
// counts the charges instead of timing the sleeps.
func TestCountingLatencyPerFilteredBatch(t *testing.T) {
	c := NewCounting(NewLocal(planDB(t)))
	c.Latency = time.Microsecond
	charged := func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := c.charged
		c.charged = 0
		return n
	}

	// 200 matching rows -> 1 batch (DefaultBatchSize 256).
	if _, err := c.ExecutePlan(PlanOf(Retrieve("T"), Select("T", "C", rel.ThetaEQ, rel.String("b")), Project("T", "K"))); err != nil {
		t.Fatal(err)
	}
	if n := charged(); n != 1 {
		t.Errorf("filtered transfer paid %d batch latencies, want 1", n)
	}
	// 600 rows -> 3 batches.
	if _, err := c.Execute(Retrieve("T")); err != nil {
		t.Fatal(err)
	}
	if n := charged(); n != 3 {
		t.Errorf("wholesale transfer paid %d batch latencies, want 3", n)
	}
}

func TestCountingForwardsStats(t *testing.T) {
	c := NewCounting(NewLocal(planDB(t)))
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 1 || st[0].Name != "T" || st[0].Rows != 600 || len(st[0].Columns) != 3 {
		t.Errorf("stats = %+v", st)
	}
}
