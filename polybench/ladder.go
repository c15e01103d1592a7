package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/lqp"
	"repro/internal/mediator"
	"repro/internal/pqp"
	"repro/internal/translate"
)

// The ladder runs one representative query per class, single client, at
// four rungs, each adding one layer to the one before:
//
//	plan      translate only: parse, Analyze, PassOne, PassTwo, optimize
//	pqp       parse plus pqp.Run over in-process LQPs (plan cache warm)
//	mediator  mediator.Service.Query over that PQP, in process
//	tcp       wire.Client.Query against the running federation
//
// The pqp, mediator and tcp rungs repeat one text, so they hit the plan
// cache after the first call: the plan rung is what a cache miss adds.
// Allocation is the whole process's TotalAlloc delta per call.

type rung struct {
	US         float64 `json:"us"`
	AllocBytes float64 `json:"alloc_bytes"`
}

type ladderClass struct {
	Class    string `json:"class"`
	Weight   int    `json:"weight"`
	Plan     rung   `json:"plan"`
	PQP      rung   `json:"pqp"`
	Mediator rung   `json:"mediator"`
	TCP      rung   `json:"tcp"`
}

// runLadder measures the ladder of every query class of sp and, with the
// same planner inputs, the median translation time of distinct query texts
// (the cost of a plan-cache miss) in µs.
func runLadder(sp *spec, sys *system, sess *session, iters int) ([]ladderClass, float64, error) {
	data := sys.data
	lqps := make(map[string]lqp.LQP, len(data.dbs))
	for _, db := range data.dbs {
		lqps[db.Name()] = lqp.NewLocal(db)
	}
	ip := pqp.New(data.schema, data.reg, data.resolver, lqps)
	if err := ip.CollectStats(); err != nil {
		return nil, 0, err
	}
	svc := mediator.New(ip, mediator.Config{Federation: data.name})
	opts := translate.Options{
		Schema:        data.schema,
		Stats:         ip.Stats,
		CanPush:       func(db string) bool { l, ok := lqps[db]; return ok && lqp.CanPush(l) },
		ExactResolver: ip.Algebra().ResolverIsExact(),
	}
	var out []ladderClass
	for _, cw := range sp.classes {
		qs := firstN(sp.seq, cw.class, 1)
		if len(qs) == 0 {
			return nil, 0, fmt.Errorf("ladder: no %s query in the sequence", cw.class)
		}
		q := qs[0]
		lc := ladderClass{Class: cw.class, Weight: cw.weight}
		steps := []struct {
			r  *rung
			fn func() error
		}{
			{&lc.Plan, func() error { return planOnly(q, opts) }},
			{&lc.PQP, func() error {
				e, err := parse(q, data.schema)
				if err != nil {
					return err
				}
				_, err = ip.Run(e)
				return err
			}},
			{&lc.Mediator, func() error { _, err := svc.Query("", q.text, q.algebraic); return err }},
			{&lc.TCP, func() error { _, err := sess.c.Query(sess.id, q.text, q.algebraic); return err }},
		}
		for _, st := range steps {
			r, err := measureRung(iters, st.fn)
			if err != nil {
				return nil, 0, fmt.Errorf("ladder %s: %w", cw.class, err)
			}
			*st.r = r
		}
		out = append(out, lc)
	}
	miss, err := planMissUS(sp.seq, opts)
	return out, miss, err
}

// planMissUS times the translation pipeline once on each of the first
// distinct texts of seq (cycling when it has fewer) and returns the median.
func planMissUS(seq []query, opts translate.Options) (float64, error) {
	const n = 32
	var distinct []query
	seen := make(map[string]bool)
	for _, q := range seq {
		if !seen[q.text] {
			seen[q.text] = true
			distinct = append(distinct, q)
			if len(distinct) == n {
				break
			}
		}
	}
	times := make([]time.Duration, n)
	for i := range times {
		t0 := time.Now()
		if err := planOnly(distinct[i%len(distinct)], opts); err != nil {
			return 0, err
		}
		times[i] = time.Since(t0)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return float64(times[n/2]) / float64(time.Microsecond), nil
}

// planOnly runs the translation pipeline the PQP runs on a cache miss.
func planOnly(q query, opts translate.Options) error {
	e, err := parse(q, opts.Schema)
	if err != nil {
		return err
	}
	pom, err := translate.Analyze(e)
	if err != nil {
		return err
	}
	half, err := translate.PassOne(pom, opts.Schema)
	if err != nil {
		return err
	}
	iom, err := translate.PassTwo(half, opts.Schema)
	if err != nil {
		return err
	}
	_, err = translate.OptimizeWithOptions(iom, opts)
	return err
}

// measureRung warms fn twice, then times iters calls: the median call time
// and the mean allocation per call.
func measureRung(iters int, fn func() error) (rung, error) {
	for i := 0; i < 2; i++ {
		if err := fn(); err != nil {
			return rung{}, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	times := make([]time.Duration, iters)
	for i := range times {
		t0 := time.Now()
		if err := fn(); err != nil {
			return rung{}, err
		}
		times[i] = time.Since(t0)
	}
	runtime.ReadMemStats(&after)
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return rung{
		US:         float64(times[len(times)/2]) / float64(time.Microsecond),
		AllocBytes: float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
	}, nil
}

// firstN returns the first n queries of class in seq, repeating them when
// seq holds fewer.
func firstN(seq []query, class string, n int) []query {
	var out []query
	for _, q := range seq {
		if q.class == class {
			out = append(out, q)
			if len(out) == n {
				return out
			}
		}
	}
	for i := 0; len(out) > 0 && len(out) < n; i++ {
		out = append(out, out[i])
	}
	return out
}

// ladderMix weights each rung by the classes' shares of the mix.
func ladderMix(classes []ladderClass) (mix ladderClass) {
	total := 0.0
	add := func(dst *rung, src rung, w float64) {
		dst.US += src.US * w
		dst.AllocBytes += src.AllocBytes * w
	}
	for _, c := range classes {
		w := float64(c.Weight)
		total += w
		add(&mix.Plan, c.Plan, w)
		add(&mix.PQP, c.PQP, w)
		add(&mix.Mediator, c.Mediator, w)
		add(&mix.TCP, c.TCP, w)
	}
	for _, r := range []*rung{&mix.Plan, &mix.PQP, &mix.Mediator, &mix.TCP} {
		r.US /= total
		r.AllocBytes /= total
	}
	return mix
}
