package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/identity"
	"repro/internal/lqp"
	"repro/internal/paperdata"
	"repro/internal/pqp"
	"repro/internal/rel"
	"repro/internal/tables"
	"repro/internal/translate"
	"repro/internal/workload"
)

// query is one request of a workload's mix.
type query struct {
	class     string
	text      string
	algebraic bool
	// check marks the answers compared against the oracle.
	check bool
}

// sizes scales a workload: full sizes by default, tiny ones (--tiny) for the
// smoke tests.
type sizes struct {
	facts int
	// insertsPerSecond is how many insert batches ingest-mix issues per
	// second of its window; the count is fixed before the run starts.
	insertsPerSecond int
	batchRows        int
	// checkEvery / maxChecks pick the sampled star-mix and ingest-mix
	// answers the oracle re-derives.
	checkEvery, maxChecks int
	ladderIters           int
	// setups is how many times a plain run sets up (setup_s is their
	// median); during set-up each session runs the first warmups queries
	// of every class.
	setups, warmups int
}

var fullSizes = sizes{facts: 20000, insertsPerSecond: 10, batchRows: 16, checkEvery: 16, maxChecks: 96, ladderIters: 12, setups: 3, warmups: 5}
var tinySizes = sizes{facts: 400, insertsPerSecond: 10, batchRows: 4, checkEvery: 4, maxChecks: 16, ladderIters: 2, setups: 2, warmups: 1}

// spec is one workload: its data, its request sequence and its client
// arrangement.
type spec struct {
	name string
	data func() *federationData
	// seq is the request sequence the query clients share, in order.
	seq []query
	// queryClients mediator sessions run seq; ingest-mix adds one writer.
	queryClients int
	// classes lists the query classes of the ladder with their weights in
	// the mix.
	classes []classWeight
}

type classWeight struct {
	class  string
	weight int
}

// The star federation's selectivities are known by construction
// (workload.NewStar): CAT is uniform over 10 categories and VAL uniform
// over [0, 10000), so a CAT selection keeps 10% of the facts and VAL >= T
// keeps (10000-T)/10000 of them.
func starConfig(seed int64, sz sizes) workload.StarConfig {
	return workload.StarConfig{Facts: sz.facts, Dims: 50, Mids: 10, Categories: 10, Seed: seed}
}

func starData(seed int64, sz sizes, durable string) func() *federationData {
	return func() *federationData {
		st := workload.NewStar(starConfig(seed, sz))
		return &federationData{name: "star", schema: st.Schema, reg: st.Registry, dbs: st.Databases(), durable: durable}
	}
}

func paperData() *federationData {
	fed := paperdata.New()
	return &federationData{name: "paper", schema: fed.Schema, reg: fed.Registry, resolver: identity.CaseFold{}, dbs: fed.Databases()}
}

// seqLen is the request sequence length; runs that outlast it wrap.
const seqLen = 1 << 14

// newSpec builds workload name's inputs from seed.
func newSpec(name string, seed int64, sz sizes) (*spec, error) {
	rng := rand.New(rand.NewSource(seed))
	sampled := func(qs []query) []query {
		for i := range qs {
			qs[i].check = i%sz.checkEvery == 0 && i/sz.checkEvery < sz.maxChecks
		}
		return qs
	}
	switch name {
	case "fig1-tcp":
		return &spec{
			name:         name,
			data:         paperData,
			seq:          []query{{class: "fig1", text: tables.PaperSQL, check: true}},
			queryClients: 2,
			classes:      []classWeight{{"fig1", 1}},
		}, nil
	case "star-mix":
		classes := []classWeight{{"sel", 2}, {"join", 1}, {"dim", 1}, {"join3", 1}, {"union", 1}, {"minus", 1}}
		seq := make([]query, seqLen)
		for i := range seq {
			seq[i] = starQuery(rng, pick(rng, classes))
		}
		return &spec{name: name, data: starData(seed, sz, ""), seq: sampled(seq), queryClients: 2, classes: classes}, nil
	case "ingest-mix":
		classes := []classWeight{{"point", 1}, {"selective", 1}}
		seq := make([]query, seqLen)
		for i := range seq {
			if pick(rng, classes) == "point" {
				seq[i] = query{class: "point", text: fmt.Sprintf(`PFACT [FK = "F%07d"]`, rng.Intn(sz.facts)), algebraic: true}
			} else {
				seq[i] = query{class: "selective", algebraic: true, text: fmt.Sprintf(
					`(((PFACT [CAT = "cat%d"]) [VAL >= %d]) [DK = DK] PDIM) [FK, VAL, DCAT]`, rng.Intn(10), 9000+rng.Intn(1000))}
			}
		}
		return &spec{name: name, data: starData(seed, sz, "FD"), seq: sampled(seq), queryClients: 1, classes: classes}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fig1-tcp, star-mix or ingest-mix)", name)
}

func pick(rng *rand.Rand, classes []classWeight) string {
	total := 0
	for _, c := range classes {
		total += c.weight
	}
	n := rng.Intn(total)
	for _, c := range classes {
		if n < c.weight {
			return c.class
		}
		n -= c.weight
	}
	return classes[len(classes)-1].class
}

// starQuery draws one star-mix query of class. The literal space (10
// categories × 10000 thresholds) is far larger than the 512-plan cache, so
// most star queries pay translation and optimization.
func starQuery(rng *rand.Rand, class string) query {
	cat := func() string { return fmt.Sprintf(`"cat%d"`, rng.Intn(10)) }
	var text string
	switch class {
	case "sel": // the StarQueries selection chain
		text = fmt.Sprintf(`((PFACT [CAT = %s]) [VAL >= %d]) [VAL]`, cat(), 5000+rng.Intn(5000))
	case "join": // the StarQueries star join, with a threshold
		text = fmt.Sprintf(`(((PFACT [CAT = %s]) [VAL >= %d]) [DK = DK] PDIM) [VAL, DCAT]`, cat(), rng.Intn(10000))
	case "dim": // the StarQueries dimension scan
		text = fmt.Sprintf(`PDIM [DCAT = "dcat%d"]`, rng.Intn(5))
	case "join3":
		text = fmt.Sprintf(`((((PFACT [CAT = %s]) [VAL >= %d]) [DK = DK] PDIM) [MK = MK] PMID) [VAL, DCAT, GRADE]`, cat(), rng.Intn(10000))
	case "union":
		text = fmt.Sprintf(`(((PFACT [CAT = %s]) [VAL >= %d]) [FK, VAL]) UNION (((PFACT [CAT = %s]) [VAL >= %d]) [FK, VAL])`,
			cat(), 5000+rng.Intn(5000), cat(), 5000+rng.Intn(5000))
	case "minus":
		c, lo := cat(), rng.Intn(5000)
		text = fmt.Sprintf(`(((PFACT [CAT = %s]) [VAL >= %d]) [FK, VAL]) MINUS (((PFACT [CAT = %s]) [VAL >= %d]) [FK, VAL])`,
			c, lo, c, lo+1000+rng.Intn(4000))
	}
	return query{class: class, text: text, algebraic: true}
}

// insertBatches draws ingest-mix's writes: n batches of new FACT rows whose
// keys (G-prefixed) and category ("ins") no read of the mix selects, so
// every read keeps its seed-data answer while the relation grows.
func insertBatches(seed int64, n, rows, dims, mids int) [][]rel.Tuple {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([][]rel.Tuple, n)
	k := 0
	for b := range out {
		batch := make([]rel.Tuple, rows)
		for i := range batch {
			batch[i] = rel.Tuple{
				rel.String(fmt.Sprintf("G%07d", k)),
				rel.String(fmt.Sprintf("D%04d", rng.Intn(dims))),
				rel.String(fmt.Sprintf("M%04d", rng.Intn(mids))),
				rel.String("ins"),
				rel.Int(int64(rng.Intn(10000))),
				rel.String(fmt.Sprintf("pad-ins-%028d", k)),
			}
			k++
		}
		out[b] = batch
	}
	return out
}

// parse compiles q against schema.
func parse(q query, schema *core.Schema) (translate.Expr, error) {
	if q.algebraic {
		return translate.ParseExpr(q.text)
	}
	return translate.CompileSQL(q.text, schema)
}

// oracle re-derives answers with an unoptimized, cache-less PQP and the
// materializing reference engine, over in-process LQPs.
type oracle struct {
	q  *pqp.PQP
	fp map[string]uint64
}

func newOracle(data *federationData) *oracle {
	lqps := make(map[string]lqp.LQP, len(data.dbs))
	for _, db := range data.dbs {
		lqps[db.Name()] = lqp.NewLocal(db)
	}
	q := pqp.New(data.schema, data.reg, data.resolver, lqps)
	q.Optimize = false
	q.Plans = nil
	return &oracle{q: q, fp: make(map[string]uint64)}
}

// fingerprint returns the expected answer fingerprint of q.
func (o *oracle) fingerprint(q query) (uint64, error) {
	if fp, ok := o.fp[q.text]; ok {
		return fp, nil
	}
	e, err := parse(q, o.q.Schema())
	if err != nil {
		return 0, err
	}
	pom, err := translate.Analyze(e)
	if err != nil {
		return 0, err
	}
	half, err := translate.PassOne(pom, o.q.Schema())
	if err != nil {
		return 0, err
	}
	iom, err := translate.PassTwo(half, o.q.Schema())
	if err != nil {
		return 0, err
	}
	ans, err := o.q.ExecuteMaterialized(iom)
	if err != nil {
		return 0, err
	}
	fp := fingerprint(ans)
	o.fp[q.text] = fp
	return fp, nil
}

// fingerprint hashes an answer as tables.Diff compares it: the header and
// the multiset of rows rendered cell by cell with both tag sets.
func fingerprint(p *core.Relation) uint64 {
	header, rows := tables.RenderRelation(p)
	return fingerprintRows(header, rows)
}

func fingerprintRows(header string, rows []string) uint64 {
	rows = append([]string(nil), rows...)
	sort.Strings(rows)
	h := uint64(14695981039346656037)
	for _, s := range append([]string{header}, rows...) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= '\n'
		h *= 1099511628211
	}
	return h
}

// table9Fingerprint is the fingerprint of the paper's Table 9.
func table9Fingerprint() uint64 {
	header, rows := tables.ParseExpected(tables.Table9)
	return fingerprintRows(header, rows)
}
