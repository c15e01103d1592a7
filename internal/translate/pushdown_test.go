package translate

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lqp"
	"repro/internal/rel"
	"repro/internal/stats"
)

// pushAll reports every LQP as accepting pushed-down subplans.
func pushAll(string) bool { return true }

func optimizeWith(t *testing.T, iom *Matrix, opts Options) *Matrix {
	t.Helper()
	out, err := OptimizeWithOptions(iom, opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOptimizeFusesSelectChain: a PQP-resident Select over a pass-one-pushed
// local Select fuses into one pushed-down subplan at the LQP, with the
// attribute localized (MAJOR -> MAJ).
func TestOptimizeFusesSelectChain(t *testing.T) {
	_, _, iom := translateAll(t, `(PALUMNUS [DEGREE = "MBA"]) [MAJOR = "IS"]`)
	opt := optimizeWith(t, iom, Options{Schema: testSchema(), CanPush: pushAll})
	wantMatrix(t, opt,
		`R(1) | Select | ALUMNUS | DEG | = | "MBA" | nil | AD | push: [MAJ = "IS"]`,
	)
}

// TestOptimizeFusesProjection: a trailing PQP Project fuses too, its
// attribute list localized, so only the named columns cross the wire.
func TestOptimizeFusesProjection(t *testing.T) {
	_, _, iom := translateAll(t, `(PALUMNUS [DEGREE = "MBA"]) [ANAME, DEGREE]`)
	opt := optimizeWith(t, iom, Options{Schema: testSchema(), CanPush: pushAll})
	wantMatrix(t, opt,
		`R(1) | Select | ALUMNUS | DEG | = | "MBA" | nil | AD | push: [ANAME DEG]`,
	)
}

// TestOptimizePushdownSkippedWithoutCapability: an LQP that does not accept
// subplans keeps the chain PQP-side — the plan is exactly the dedup'd IOM.
func TestOptimizePushdownSkippedWithoutCapability(t *testing.T) {
	_, _, iom := translateAll(t, `(PALUMNUS [DEGREE = "MBA"]) [MAJOR = "IS"]`)
	for _, opts := range []Options{
		{Schema: testSchema()}, // no capability hook at all
		{Schema: testSchema(), CanPush: func(string) bool { return false }}, // every LQP declines
	} {
		opt := optimizeWith(t, iom, opts)
		wantMatrix(t, opt,
			`R(1) | Select | ALUMNUS | DEG | = | "MBA" | nil | AD`,
			`R(2) | Select | R(1) | MAJOR | = | "IS" | nil | PQP`,
		)
	}
}

// TestOptimizePushdownSkipsDomainMapped: a selection on a domain-mapped
// attribute must stay PQP-side (the LQP would compare raw, unmapped
// values), and a projection touching a domain-mapped column must not push
// (the LQP would eliminate duplicates on raw values).
func TestOptimizePushdownSkipsDomainMapped(t *testing.T) {
	schema := testSchema()
	schema.DomainMap.Set("AD", "ALUMNUS", "MAJ", func(v rel.Value) rel.Value { return v })
	opts := Options{Schema: schema, CanPush: pushAll}

	_, _, iom := translateAll(t, `(PALUMNUS [DEGREE = "MBA"]) [MAJOR = "IS"]`)
	opt := optimizeWith(t, iom, opts)
	for _, row := range opt.Rows {
		for _, op := range row.Pushed {
			t.Errorf("domain-mapped selection was pushed: %v", op)
		}
	}

	// A projection naming a domain-mapped column must not REPLACE the
	// PQP-side Project (the LQP would eliminate duplicates on raw values
	// that map to equal domain values). Narrowing the transfer to the two
	// columns is fine — the PQP-side Project still dedups mapped values —
	// so the final row must remain a PQP Project.
	_, _, iom2 := translateAll(t, `(PALUMNUS [DEGREE = "MBA"]) [ANAME, MAJOR]`)
	opt2 := optimizeWith(t, iom2, opts)
	last := opt2.Rows[len(opt2.Rows)-1]
	if last.Op != OpProject || last.EL != "PQP" {
		t.Errorf("domain-mapped projection fused away, final row: %s", last)
	}
	for _, row := range opt2.Rows {
		for _, op := range row.Pushed {
			if op.Kind != lqp.OpProject {
				t.Errorf("non-projection step pushed: %v", op)
			}
		}
	}
}

// TestOptimizeRestrictPushdownOrderedOnly: the PQP routes = and <> through
// the instance resolver's canonical IDs (kind-sensitive — Int(5) never
// equals Float(5)), the LQP compares with numeric coercion, so equality
// restrictions never fuse — even under an exact resolver — while ordered
// comparisons (evaluated identically on both sides) do.
func TestOptimizeRestrictPushdownOrderedOnly(t *testing.T) {
	_, _, iom := translateAll(t, `(PSTUDENT [GPA >= 3.5]) [SNAME = MAJOR]`)
	for _, exact := range []bool{false, true} {
		opt := optimizeWith(t, iom, Options{Schema: testSchema(), CanPush: pushAll, ExactResolver: exact})
		wantMatrix(t, opt,
			`R(1) | Select | STUDENT | GPA | >= | 3.5 | nil | PD`,
			`R(2) | Restrict | R(1) | SNAME | = | MAJOR | nil | PQP`,
		)
	}
	_, _, iom2 := translateAll(t, `(PSTUDENT [GPA >= 3.5]) [SNAME < MAJOR]`)
	opt := optimizeWith(t, iom2, Options{Schema: testSchema(), CanPush: pushAll})
	wantMatrix(t, opt,
		`R(1) | Select | STUDENT | GPA | >= | 3.5 | nil | PD | push: [SNAME < MAJOR]`,
	)
}

// TestOptimizeNeverPushesThroughMerge: a selection above a Merge filters
// coalesced, multi-source (tag-bearing) values — it must not move below the
// merge boundary, whatever the capabilities.
func TestOptimizeNeverPushesThroughMerge(t *testing.T) {
	_, _, iom := translateAll(t, `(PORGANIZATION [INDUSTRY = "Banking"]) [ONAME, CEO]`)
	opt := optimizeWith(t, iom, Options{Schema: testSchema(), CanPush: pushAll, ExactResolver: true})
	lines := matrixLines(opt)
	if !strings.Contains(lines, "Merge") {
		t.Fatalf("merge disappeared:\n%s", lines)
	}
	for _, row := range opt.Rows {
		if isLocalRow(row) && len(row.Pushed) > 0 {
			t.Errorf("operation pushed below a merge boundary: %s", row)
		}
		if row.Op == OpSelect && row.EL != "PQP" {
			t.Errorf("selection on merged attributes moved to an LQP: %s", row)
		}
	}
}

// TestOptimizeNarrowKeepsTagBearingColumns is the projection-narrowing
// contract: a Retrieve feeding a PQP-side selection chain narrows to the
// demanded columns, and the selection's condition column — whose origin
// tags mediate the result, here forced PQP-side by a domain mapping — is
// never projected away.
func TestOptimizeNarrowKeepsTagBearingColumns(t *testing.T) {
	schema := testSchema()
	schema.DomainMap.Set("AD", "ALUMNUS", "MAJ", func(v rel.Value) rel.Value { return v })
	_, _, iom := translateAllWith(t, schema, `(PALUMNUS [MAJOR = "IS"]) [ANAME]`)
	// No pushdown capability: narrowing a bare Retrieve is a single local
	// Project, which every LQP supports.
	opt := optimizeWith(t, iom, Options{Schema: schema})
	wantMatrix(t, opt,
		`R(1) | Project | ALUMNUS | ANAME, MAJ | nil | nil | nil | AD`,
		`R(2) | Select | R(1) | MAJOR | = | "IS" | nil | PQP`,
		`R(3) | Project | R(2) | ANAME | nil | nil | nil | PQP`,
	)
}

// TestOptimizeNarrowSkipsTotalDemand: inputs of whole-tuple operations
// (here a Union) are observed in full and must not narrow.
func TestOptimizeNarrowSkipsTotalDemand(t *testing.T) {
	_, _, iom := translateAll(t, `(PALUMNUS) UNION (PALUMNUS)`)
	opt := optimizeWith(t, iom, Options{Schema: testSchema()})
	for _, row := range opt.Rows {
		if row.Op == OpProject && isLocalRow(row) {
			t.Errorf("union input narrowed: %s", row)
		}
	}
}

// reorderSchema and reorderStats build a two-relation federation for the
// join-order unit tests: SMALL (10 rows) at XD, BIG (1000 rows) at YD,
// joined on the shared polygen attribute K.
func reorderSchema() (*Matrix, Options) {
	schema := mustSchemaOf()
	cat := stats.NewCatalog()
	cat.SetRelation("XD", lqp.RelationStats{Name: "SMALL", Rows: 10, Columns: []string{"K", "V"}})
	cat.SetRelation("YD", lqp.RelationStats{Name: "BIG", Rows: 1000, Columns: []string{"K", "W"}})
	iom := &Matrix{Rows: []Row{
		{PR: 1, Op: OpRetrieve, LHR: LocalOperand("SMALL"), RHA: NoComparand(), RHR: NoOperand(), EL: "XD"},
		{PR: 2, Op: OpRetrieve, LHR: LocalOperand("BIG"), RHA: NoComparand(), RHR: NoOperand(), EL: "YD"},
		{PR: 3, Op: OpJoin, LHR: RegOperand(1), LHA: []string{"K"}, Theta: rel.ThetaEQ, HasTheta: true, RHA: AttrComparand("K"), RHR: RegOperand(2), EL: "PQP"},
		{PR: 4, Op: OpProject, LHR: RegOperand(3), LHA: []string{"V", "W"}, RHA: NoComparand(), RHR: NoOperand(), EL: "PQP"},
	}}
	return iom, Options{Schema: schema, Stats: cat, ExactResolver: true}
}

func mustSchemaOf() *core.Schema {
	la := func(db, scheme, attr string) core.LocalAttr {
		return core.LocalAttr{DB: db, Scheme: scheme, Attr: attr}
	}
	return core.MustSchema(
		&core.Scheme{Name: "PSMALL", Key: "K", Attrs: []core.PolygenAttr{
			{Name: "K", Mapping: []core.LocalAttr{la("XD", "SMALL", "K")}},
			{Name: "V", Mapping: []core.LocalAttr{la("XD", "SMALL", "V")}},
		}},
		&core.Scheme{Name: "PBIG", Key: "K", Attrs: []core.PolygenAttr{
			{Name: "K", Mapping: []core.LocalAttr{la("YD", "BIG", "K")}},
			{Name: "W", Mapping: []core.LocalAttr{la("YD", "BIG", "W")}},
			{Name: "J", Mapping: []core.LocalAttr{la("YD", "BIG", "J")}},
		}},
		&core.Scheme{Name: "PTHIRD", Key: "J", Attrs: []core.PolygenAttr{
			{Name: "J", Mapping: []core.LocalAttr{la("ZD", "THIRD", "J"), la("WD", "THIRD2", "J")}},
			{Name: "U", Mapping: []core.LocalAttr{la("ZD", "THIRD", "U"), la("WD", "THIRD2", "U")}},
		}},
	)
}

// reorderChainSchema extends reorderSchema to a 3-leaf chain: SMALL joins
// BIG (1000 rows, now with a column J) on K, and the result joins PTHIRD on
// J. With mergeLeaf false the third leaf is THIRD (10 rows at ZD); with
// mergeLeaf true it is the Merge of THIRD and THIRD2 (WD).
func reorderChainSchema(mergeLeaf bool) (*Matrix, Options) {
	iom, opts := reorderSchema()
	opts.Stats.SetRelation("YD", lqp.RelationStats{Name: "BIG", Rows: 1000, Columns: []string{"K", "W", "J"}})
	opts.Stats.SetRelation("ZD", lqp.RelationStats{Name: "THIRD", Rows: 10, Columns: []string{"J", "U"}})
	opts.Stats.SetRelation("WD", lqp.RelationStats{Name: "THIRD2", Rows: 10, Columns: []string{"J", "U"}})
	third := 3
	rows := []Row{iom.Rows[0], iom.Rows[1],
		{PR: 3, Op: OpRetrieve, LHR: LocalOperand("THIRD"), RHA: NoComparand(), RHR: NoOperand(), EL: "ZD"}}
	if mergeLeaf {
		third = 5
		rows = append(rows,
			Row{PR: 4, Op: OpRetrieve, LHR: LocalOperand("THIRD2"), RHA: NoComparand(), RHR: NoOperand(), EL: "WD"},
			Row{PR: 5, Op: OpMerge, LHR: RegsOperand(3, 4), RHA: NoComparand(), RHR: NoOperand(), EL: "PQP", Scheme: "PTHIRD"})
	}
	join := iom.Rows[2]
	join.PR = third + 1
	iom.Rows = append(rows, join,
		Row{PR: third + 2, Op: OpJoin, LHR: RegOperand(third + 1), LHA: []string{"J"}, Theta: rel.ThetaEQ, HasTheta: true, RHA: AttrComparand("J"), RHR: RegOperand(third), EL: "PQP"},
		Row{PR: third + 3, Op: OpProject, LHR: RegOperand(third + 2), LHA: []string{"V", "W", "U"}, RHA: NoComparand(), RHR: NoOperand(), EL: "PQP"})
	return iom, opts
}

// TestOptimizeReorderSwapsBuildSide: with statistics available and an exact
// resolver, the single join flips its operands so the hash join builds over
// the small relation. The bottom swap preserves the tag algebra exactly, so
// it fires in strict mode.
func TestOptimizeReorderSwapsBuildSide(t *testing.T) {
	iom, opts := reorderSchema()
	opt := optimizeWith(t, iom, opts)
	wantMatrix(t, opt,
		"R(1) | Retrieve | SMALL | nil | nil | nil | nil | XD",
		"R(2) | Retrieve | BIG | nil | nil | nil | nil | YD",
		"R(3) | Join | R(2) | K | = | K | R(1) | PQP",
		"R(4) | Project | R(3) | V, W | nil | nil | nil | PQP",
	)
}

// TestOptimizeReorderSwapsChainBottom: in a 3-leaf chain only the bottom
// join swaps its operands, in place; the upper join stays as written.
func TestOptimizeReorderSwapsChainBottom(t *testing.T) {
	iom, opts := reorderChainSchema(false)
	opt := optimizeWith(t, iom, opts)
	wantMatrix(t, opt,
		"R(1) | Retrieve | SMALL | nil | nil | nil | nil | XD",
		"R(2) | Retrieve | BIG | nil | nil | nil | nil | YD",
		"R(3) | Retrieve | THIRD | nil | nil | nil | nil | ZD",
		"R(4) | Join | R(2) | K | = | K | R(1) | PQP",
		"R(5) | Join | R(4) | J | = | J | R(3) | PQP",
		"R(6) | Project | R(5) | V, W, U | nil | nil | nil | PQP",
	)
}

// TestOptimizeReorderSkipsMergeLeaf: the same chain with a Merge as its
// third leaf stays as written. The swap is admitted only when every chain
// leaf is LQP-resident, even though the Merge is not a bottom operand.
func TestOptimizeReorderSkipsMergeLeaf(t *testing.T) {
	iom, opts := reorderChainSchema(true)
	want := matrixLines(iom)
	if got := matrixLines(optimizeWith(t, iom, opts)); got != want {
		t.Errorf("chain with a Merge leaf rewritten:\n%s\nwant:\n%s", got, want)
	}
}

// TestOptimizeReorderNeedsStatsAndExactness: the same plan is untouched
// without statistics or with an inexact resolver.
func TestOptimizeReorderNeedsStatsAndExactness(t *testing.T) {
	iom, opts := reorderSchema()
	noStats := opts
	noStats.Stats = nil
	opt := optimizeWith(t, iom, noStats)
	if got := opt.Rows[2].LHR.Reg; got != 1 {
		t.Errorf("join reordered without statistics:\n%s", matrixLines(opt))
	}
	inexact := opts
	inexact.ExactResolver = false
	opt2 := optimizeWith(t, iom, inexact)
	if got := opt2.Rows[2].LHR.Reg; got != 1 {
		t.Errorf("join reordered under an inexact resolver:\n%s", matrixLines(opt2))
	}
}

// translateAllWith is translateAll against a custom schema.
func translateAllWith(t *testing.T, schema *core.Schema, expr string) (*Matrix, *Matrix, *Matrix) {
	t.Helper()
	e, err := ParseExpr(expr)
	if err != nil {
		t.Fatal(err)
	}
	pom, err := Analyze(e)
	if err != nil {
		t.Fatal(err)
	}
	h, err := PassOne(pom, schema)
	if err != nil {
		t.Fatalf("pass one: %v", err)
	}
	iom, err := PassTwo(h, schema)
	if err != nil {
		t.Fatalf("pass two: %v", err)
	}
	return pom, h, iom
}
