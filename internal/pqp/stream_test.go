package pqp

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/identity"
	"repro/internal/lqp"
	"repro/internal/paperdata"
	"repro/internal/rel"
	"repro/internal/translate"
	"repro/internal/wire"
	"repro/internal/workload"
)

// streamQueries are the SQL queries the engine-parity tests run: the
// paper's worked example plus shapes covering every PQP-resident operator
// family the translator emits.
var streamQueries = []string{
	`SELECT ANAME FROM PALUMNUS WHERE DEGREE = "MBA"`,
	`SELECT ONAME FROM PORGANIZATION WHERE INDUSTRY = "Banking"`,
	`SELECT ONAME, CEO FROM PORGANIZATION WHERE INDUSTRY = "Banking"`,
	`SELECT ONAME, CEO FROM PORGANIZATION, PALUMNUS WHERE CEO = ANAME AND ONAME IN
		(SELECT ONAME FROM PCAREER WHERE AID# IN
		(SELECT AID# FROM PALUMNUS WHERE DEGREE = "MBA"))`,
}

// TestStreamingMatchesMaterializedOnPaperQueries: the streaming engine and
// the materializing engine return identical tagged answers (cell for cell,
// data and both tag sets) for the paper queries.
func TestStreamingMatchesMaterializedOnPaperQueries(t *testing.T) {
	q := newPQP(t)
	for _, sql := range streamQueries {
		res, err := q.QuerySQL(sql) // Run → streaming Execute
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		mat, err := q.ExecuteMaterialized(res.Plan)
		if err != nil {
			t.Fatalf("%s: materialized: %v", sql, err)
		}
		str := strings.Join(render(res.Relation), "\n")
		if m := strings.Join(render(mat), "\n"); str != m {
			t.Errorf("%s:\nstreaming:\n%s\nmaterialized:\n%s", sql, str, m)
		}
		if res.Relation.AttrNames()[0] != mat.AttrNames()[0] || res.Relation.Degree() != mat.Degree() {
			t.Errorf("%s: attr layout diverged: %v vs %v", sql, res.Relation.AttrNames(), mat.AttrNames())
		}
	}
}

// TestStreamingMatchesMaterializedOnWorkload: engine parity on a synthetic
// federation whose Merge fans in several sources.
func TestStreamingMatchesMaterializedOnWorkload(t *testing.T) {
	f := workload.New(workload.Config{Databases: 4, Entities: 500, Overlap: 0.6, Categories: 7, Seed: 11})
	q := New(f.Schema, f.Registry, identity.Exact{}, f.LQPs())
	res, err := q.QuerySQL(`SELECT KEY, CAT FROM PENTITY WHERE CAT = "C3"`)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := q.ExecuteMaterialized(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	a, b := strings.Join(render(res.Relation), "\n"), strings.Join(render(mat), "\n")
	if a != b {
		t.Errorf("workload answers diverged:\nstreaming:\n%s\nmaterialized:\n%s", a, b)
	}
}

// TestStreamingSharedRegister: a register consumed twice (self-join)
// materializes once and feeds both operands; the answer matches the
// materializing engine.
func TestStreamingSharedRegister(t *testing.T) {
	q := newPQP(t)
	plan := &translate.Matrix{Rows: []translate.Row{
		{PR: 1, Op: translate.OpRetrieve, LHR: translate.LocalOperand("ALUMNUS"),
			RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "AD"},
		{PR: 2, Op: translate.OpJoin, LHR: translate.RegOperand(1), LHA: []string{"ANAME"},
			Theta: rel.ThetaEQ, HasTheta: true, RHA: translate.AttrComparand("ANAME"),
			RHR: translate.RegOperand(1), EL: "PQP"},
	}}
	str, err := q.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := q.ExecuteMaterialized(plan)
	if err != nil {
		t.Fatal(err)
	}
	if str.Cardinality() == 0 {
		t.Fatal("self-join returned nothing")
	}
	a, b := strings.Join(render(str), "\n"), strings.Join(render(mat), "\n")
	if a != b {
		t.Errorf("shared-register answers diverged:\nstreaming:\n%s\nmaterialized:\n%s", a, b)
	}
}

// TestStreamingRedefinedRegisterFallsBack: plans that reassign a register
// cannot compile to a cursor tree; Execute silently uses the materializing
// engine and still answers.
func TestStreamingRedefinedRegisterFallsBack(t *testing.T) {
	q := newPQP(t)
	plan := &translate.Matrix{Rows: []translate.Row{
		{PR: 1, Op: translate.OpRetrieve, LHR: translate.LocalOperand("ALUMNUS"),
			RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "AD"},
		{PR: 1, Op: translate.OpRetrieve, LHR: translate.LocalOperand("CAREER"),
			RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "AD"},
	}}
	got, err := q.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := q.ExecuteMaterialized(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != mat.Cardinality() {
		t.Errorf("fallback answer has %d tuples, want %d", got.Cardinality(), mat.Cardinality())
	}
}

// TestStreamingBadPlans: both engines reject the same malformed plans — an
// empty plan, a dangling register, a self-referencing row, an unknown
// database and a relation its database lacks — with an error, not a panic
// or a hang.
func TestStreamingBadPlans(t *testing.T) {
	q := newPQP(t)
	bad := []struct {
		plan *translate.Matrix
		want string // a substring the error must carry, if any
	}{
		{&translate.Matrix{}, ""},
		{&translate.Matrix{Rows: []translate.Row{{PR: 1, Op: translate.OpProject, LHR: translate.RegOperand(42),
			LHA: []string{"X"}, RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "PQP"}}}, ""},
		{&translate.Matrix{Rows: []translate.Row{{PR: 1, Op: translate.OpMerge, LHR: translate.RegOperand(1),
			RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "PQP"}}}, ""},
		{&translate.Matrix{Rows: []translate.Row{{PR: 1, Op: translate.OpRetrieve, LHR: translate.LocalOperand("ALUMNUS"),
			RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "NOSUCHDB"}}}, "NOSUCHDB"},
		// The missing relation's error reaches the caller through the
		// dependent row.
		{&translate.Matrix{Rows: []translate.Row{
			{PR: 1, Op: translate.OpRetrieve, LHR: translate.LocalOperand("NOSUCH"),
				RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "AD"},
			{PR: 2, Op: translate.OpProject, LHR: translate.RegOperand(1), LHA: []string{"X"},
				RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "PQP"},
		}}, "NOSUCH"},
	}
	engines := []struct {
		name string
		run  func(*translate.Matrix) (*core.Relation, error)
	}{
		{"streaming", q.Execute},
		{"materializing", q.ExecuteMaterialized},
	}
	for _, eng := range engines {
		for i, c := range bad {
			_, err := eng.run(c.plan)
			if err == nil {
				t.Errorf("bad plan %d accepted by the %s engine", i, eng.name)
			} else if !strings.Contains(err.Error(), c.want) {
				t.Errorf("bad plan %d: %s engine error %q does not name %s", i, eng.name, err, c.want)
			}
		}
	}
}

// TestStreamingOverlapsLQPLatency: with three LQPs at injected latency, the
// Merge's retrieve fan-out overlaps under the streaming engine (whose
// prefetching local streams proceed concurrently) into about one round
// trip; the serial materializing engine pays one full round trip per local
// operation.
func TestStreamingOverlapsLQPLatency(t *testing.T) {
	const latency = 20 * time.Millisecond
	fed := paperdata.New()
	lqps := make(map[string]lqp.LQP, 3)
	for name, l := range fed.LQPs() {
		c := lqp.NewCounting(l)
		c.Latency = latency
		lqps[name] = c
	}
	q := New(fed.Schema, fed.Registry, identity.CaseFold{}, lqps)
	e, err := translate.CompileSQL(`SELECT ONAME FROM PORGANIZATION WHERE INDUSTRY = "Banking"`, q.Schema())
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(e) // plan once; time the engines below
	if err != nil {
		t.Fatal(err)
	}
	// Serial materializing: 3 sequential retrieves = 3 × latency minimum.
	start := time.Now()
	if _, err := q.ExecuteMaterialized(res.Plan); err != nil {
		t.Fatal(err)
	}
	serial := time.Since(start)
	start = time.Now()
	if _, err := q.Execute(res.Plan); err != nil {
		t.Fatal(err)
	}
	streaming := time.Since(start)
	if serial < 3*latency {
		t.Fatalf("serial run too fast (%v); latency injection broken?", serial)
	}
	if streaming >= serial {
		t.Errorf("streaming (%v) not faster than serial materializing (%v)", streaming, serial)
	}
	if streaming > 2*latency {
		t.Errorf("streaming run %v; the three retrieves should overlap into ~one latency (%v)", streaming, latency)
	}
}

// TestStreamingPreservesLQPOpOrder: the streaming engine issues exactly the
// local operations of the materializing engine, in the same order — eager
// plan-order opens keep Counting-based pushdown assertions meaningful.
func TestStreamingPreservesLQPOpOrder(t *testing.T) {
	fed := paperdata.New()
	counters := make(map[string]*lqp.Counting, 3)
	lqps := make(map[string]lqp.LQP, 3)
	for name, l := range fed.LQPs() {
		c := lqp.NewCounting(l)
		counters[name] = c
		lqps[name] = c
	}
	q := New(fed.Schema, fed.Registry, identity.CaseFold{}, lqps)
	res, err := q.QuerySQL(streamQueries[3]) // streaming run
	if err != nil {
		t.Fatal(err)
	}
	streamed := make(map[string]string)
	for name, c := range counters {
		ops := c.Ops()
		strs := make([]string, len(ops))
		for i, op := range ops {
			strs[i] = op.String()
		}
		streamed[name] = strings.Join(strs, "; ")
		c.Reset()
	}
	if _, err := q.ExecuteMaterialized(res.Plan); err != nil {
		t.Fatal(err)
	}
	for name, c := range counters {
		ops := c.Ops()
		strs := make([]string, len(ops))
		for i, op := range ops {
			strs[i] = op.String()
		}
		if got := strings.Join(strs, "; "); got != streamed[name] {
			t.Errorf("%s op sequence diverged:\nstreaming:     %s\nmaterializing: %s", name, streamed[name], got)
		}
	}
}

// TestStreamingOverTCP: the full Figure-1 path — PQP against three lqpd-style
// wire servers — streams row frames end to end and matches the in-process
// answer.
func TestStreamingOverTCP(t *testing.T) {
	fed := paperdata.New()
	lqps := make(map[string]lqp.LQP, 3)
	servers := []*wire.Server{wire.NewServer(fed.AD), wire.NewServer(fed.PD), wire.NewServer(fed.CD)}
	for _, srv := range servers {
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		client, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		lqps[client.Name()] = client
	}
	remote := New(fed.Schema, fed.Registry, identity.CaseFold{}, lqps)
	local := newPQP(t)
	for _, sql := range streamQueries {
		rr, err := remote.QuerySQL(sql)
		if err != nil {
			t.Fatalf("%s (remote): %v", sql, err)
		}
		lr, err := local.QuerySQL(sql)
		if err != nil {
			t.Fatalf("%s (local): %v", sql, err)
		}
		a, b := strings.Join(render(rr.Relation), "\n"), strings.Join(render(lr.Relation), "\n")
		if a != b {
			t.Errorf("%s: remote streaming answer diverged:\nremote:\n%s\nlocal:\n%s", sql, a, b)
		}
	}
}
