// Command polybench is the end-to-end benchmark of the polygen federation:
// the paper's Figure 1 query, a star-schema query mix and a read/write
// ingest mix, each served over loopback TCP by the whole stack (wire LQP
// servers, the federation registry, the PQP with its optimizer and plan
// cache, the mediator behind a wire server) and driven by wire.Client
// sessions in a closed loop. It checks every answer it samples against an
// oracle and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash polybench/run.sh --workload fig1-tcp --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1 a
// traced run reports the per-layer metrics, the ladder and the tracing
// overhead, and writes its spans under --out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/store"
	"repro/internal/tables"
	"repro/internal/wire"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tiny     bool
	out      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "fig1-tcp, star-mix or ingest-mix")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated data, queries and writes")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds (a traced run splits them between its untraced and traced windows)")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics from a traced run")
	fs.BoolVar(&o.tiny, "tiny", false, "tiny data sizes, for smoke tests")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for temporary stores and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "polybench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	res, err := benchmark(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "polybench: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "polybench: %v\n", err)
		return 1
	}
	return 0
}

// runBudget bounds one invocation's own work, below the three minutes a
// run may take.
const runBudget = 140 * time.Second

func benchmark(o options, log io.Writer) (*result, error) {
	start := time.Now()
	sz := fullSizes
	if o.tiny {
		sz = tinySizes
	}
	sp, err := newSpec(o.workload, o.seed, sz)
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(o.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	b := &bench{o: o, sz: sz, sp: sp, tmp: tmp, log: log, deadline: start.Add(runBudget)}
	if o.trace {
		return b.traced()
	}
	return b.measured()
}

// bench is one invocation's state.
type bench struct {
	o   options
	sz  sizes
	sp  *spec
	tmp string
	log io.Writer
	// deadline is when the invocation must stop waiting on store recovery.
	deadline time.Time
}

// rig is a started system with its client sessions.
type rig struct {
	sys      *system
	sessions []*session
	writer   *wire.Client
}

func (r *rig) close() error {
	for _, s := range r.sessions {
		s.c.Close()
	}
	if r.writer != nil {
		r.writer.Close()
	}
	return r.sys.close()
}

// setup builds the federation, starts its servers, collects statistics,
// opens the client sessions and warms every query class up.
func (b *bench) setup(tr *tracer) (*rig, error) {
	sys, err := start(b.sp.data(), tr, b.tmp)
	if err != nil {
		return nil, err
	}
	r := &rig{sys: sys}
	fail := func(err error) (*rig, error) {
		r.close()
		sys.removeStore()
		return nil, err
	}
	for i := 0; i < b.sp.queryClients; i++ {
		s, err := sys.dialSession()
		if err != nil {
			return fail(err)
		}
		r.sessions = append(r.sessions, s)
	}
	if sys.data.durable != "" {
		if r.writer, err = sys.dialWriter(sys.data.durable); err != nil {
			return fail(err)
		}
	}
	for _, cw := range b.sp.classes {
		for _, q := range firstN(b.sp.seq, cw.class, b.sz.warmups) {
			for _, s := range r.sessions {
				ans, err := s.c.Query(s.id, q.text, q.algebraic)
				if err != nil {
					return fail(fmt.Errorf("warm-up %s: %w", cw.class, err))
				}
				if q.class == "fig1" {
					if d := tables.Diff(tables.Table9, ans.Relation); d != "" {
						return fail(fmt.Errorf("figure 1 answer differs from Table 9:\n%s", d))
					}
				}
			}
		}
	}
	return r, nil
}

// setupMedian sets up b.sz.setups times, keeping the last rig, and returns
// the median set-up cost in process CPU seconds. CPU time, not wall time:
// on a shared host the hypervisor steals a varying share of the CPUs, which
// stretches wall time by up to 2.5x between minutes but leaves the work
// done unchanged.
func (b *bench) setupMedian() (*rig, float64, error) {
	var cpu, wall []float64
	var r *rig
	for k := 0; k < b.sz.setups; k++ {
		if r != nil {
			r.close()
			r.sys.removeStore()
			r = nil
			runtime.GC()
		}
		c0, t0 := cpuSeconds(), time.Now()
		var err error
		if r, err = b.setup(nil); err != nil {
			return nil, 0, err
		}
		cpu = append(cpu, cpuSeconds()-c0)
		wall = append(wall, time.Since(t0).Seconds())
	}
	b.logf("set-up wall time median %.3f s", median(wall))
	return r, median(cpu), nil
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func (b *bench) batches(d time.Duration) [][]rel.Tuple {
	if b.sp.name != "ingest-mix" {
		return nil
	}
	n := int(float64(b.sz.insertsPerSecond) * d.Seconds())
	return insertBatches(b.o.seed, max(n, 1), b.sz.batchRows, 50, 10)
}

// measured is the --trace 0 run: the end-to-end metrics.
func (b *bench) measured() (*result, error) {
	r, setupS, err := b.setupMedian()
	if err != nil {
		return nil, err
	}
	d := time.Duration(b.o.seconds) * time.Second
	w := runWindow(b.sp, r.sessions, r.writer, b.batches(d), d, 0, nil)
	rss := peakRSSMB()
	b.logf("window: %d queries, %d inserts in %v", len(w.queries), len(w.inserts), w.elapsed)
	err = b.verify(r, w)
	r.sys.removeStore()
	if err != nil {
		return nil, err
	}
	// Wall-clock figures go to the log only: on a shared host they move
	// further between runs than any bound could absorb (see baseline.json);
	// the traced run reports them as per-layer metrics.
	b.logf("%.1f queries/s, p50 %.2f ms, p99 %.2f ms", float64(len(w.queries))/w.elapsed.Seconds(),
		percentileMS(w.queries, 0.50), percentileMS(w.queries, 0.99))
	res := b.result(w)
	res.Metrics = map[string]metric{
		"setup_s":            {setupS, "s"},
		"alloc_bytes_per_op": {float64(w.allocBytes) / float64(max(w.ops(), 1)), "B"},
		"peak_rss_mb":        {rss, "MB"},
	}
	return res, nil
}

// traced is the --trace 1 run. An untraced window (half the seconds) gives
// the baseline p50, the per-layer metrics that need no spans, and the
// ladder; a traced window over a freshly set-up, fully wrapped system gives
// the spans and the layer counters.
func (b *bench) traced() (*result, error) {
	half := time.Duration(b.o.seconds) * time.Second / 2

	r, err := b.setup(nil)
	if err != nil {
		return nil, err
	}
	cache0 := r.sys.pqp.Plans.Stats()
	var st0, st1 store.Stats
	if r.sys.store != nil {
		st0 = r.sys.store.Stats()
	}
	wA := runWindow(b.sp, r.sessions, r.writer, b.batches(half), half, 0, nil)
	b.logf("untraced window: %d queries, %d inserts in %v", len(wA.queries), len(wA.inserts), wA.elapsed)
	cache1 := r.sys.pqp.Plans.Stats()
	if r.sys.store != nil {
		st1 = r.sys.store.Stats()
	}
	ladder, planMiss, err := runLadder(b.sp, r.sys, r.sessions[0], b.sz.ladderIters)
	if err != nil {
		r.close()
		r.sys.removeStore()
		return nil, err
	}
	if err := b.verify(r, wA); err != nil {
		r.sys.removeStore()
		return nil, err
	}
	defer r.sys.removeStore()

	rB, err := b.setup(newTracer())
	if err != nil {
		return nil, err
	}
	tr := rB.sys.tr
	rB.sys.resetCounts()
	tr.reset()
	wB := runWindow(b.sp, rB.sessions, rB.writer, b.batches(half), half, len(wA.queries), tr)
	b.logf("traced window: %d queries, %d inserts in %v", len(wB.queries), len(wB.inserts), wB.elapsed)
	lqpRows, lqpCells := rB.sys.lqpCounts()
	medBytes, lqpBytes := rB.sys.medBytes.n.Load(), rB.sys.lqpBytes.n.Load()
	err = b.verify(rB, wB)
	rB.sys.removeStore()
	if err != nil {
		return nil, err
	}
	// Recovery runs last: it decodes the whole snapshot.
	recoveryS := 0.0
	if r.sys.storeDir != "" {
		if recoveryS, err = b.reopen(r, wA); err != nil {
			return nil, err
		}
	}
	if err := tr.writeFile(filepath.Join(b.o.out, fmt.Sprintf("trace-%s-seed%d.jsonl", b.sp.name, b.o.seed))); err != nil {
		return nil, err
	}

	qA, qB := float64(max(len(wA.queries), 1)), float64(max(len(wB.queries), 1))
	perQ := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / qB }
	lt := summarize(tr.snapshot())
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	mix := ladderMix(ladder)
	legMS, serveMS := perQ(lt.total["lqp"]), perQ(lt.total["lqpd"])
	lookups := float64((cache1.Hits + cache1.Misses) - (cache0.Hits + cache0.Misses))
	m := map[string]metric{
		"query_qps":                      {float64(len(wA.queries)) / wA.elapsed.Seconds(), "queries/s"},
		"query_p50_ms":                   {percentileMS(wA.queries, 0.50), "ms"},
		"query_p99_ms":                   {percentileMS(wA.queries, 0.99), "ms"},
		"insert_p50_ms":                  {percentileMS(wA.inserts, 0.50), "ms"},
		"insert_p99_ms":                  {percentileMS(wA.inserts, 0.99), "ms"},
		"insert_rows_per_s":              {ratio(float64(wA.insertRows), sumMS(wA.inserts)/1000), "rows/s"},
		"failed_ops_share":               {ratio(float64(wA.failed+wB.failed), float64(wA.attempted+wB.attempted)), "ratio"},
		"wire.client_overhead_ms":        {perQ(lt.self["client"]), "ms"},
		"wire.mediator_bytes_per_query":  {float64(medBytes) / qB, "B"},
		"wire.lqp_bytes_per_query":       {float64(lqpBytes) / qB, "B"},
		"wire.lqp_leg_overhead_ms":       {legMS - serveMS, "ms"},
		"mediator.query_ms":              {perQ(lt.total["mediator"]), "ms"},
		"translate.plan_cache_hit_ratio": {ratio(float64(cache1.Hits-cache0.Hits), lookups), "ratio"},
		"translate.plan_miss_us":         {planMiss, "us"},
		"pqp.self_ms":                    {perQ(lt.self["mediator"]), "ms"},
		"pqp.answer_cells_per_query":     {float64(wA.answerCells) / qA, "cells"},
		"federation.call_ms":             {perQ(lt.total["federation"]), "ms"},
		"federation.self_ms":             {perQ(lt.self["federation"]), "ms"},
		"federation.calls_per_query":     {float64(lt.count["federation"]) / qB, "count"},
		"federation.retries_per_query":   {float64(wA.retries) / qA, "count"},
		"federation.hedges_per_query":    {float64(wA.hedges) / qA, "count"},
		"lqp.leg_ms":                     {legMS, "ms"},
		"lqp.rows_per_query":             {float64(lqpRows) / qB, "rows"},
		"lqp.cells_per_query":            {float64(lqpCells) / qB, "cells"},
		"lqp.cells_per_answer_cell":      {ratio(float64(lqpCells), float64(wB.answerCells)), "ratio"},
		"lqpd.serve_ms":                  {serveMS, "ms"},
		"store.insert_ms":                {ratio(float64(lt.total["store"])/float64(time.Millisecond), float64(len(wB.inserts))), "ms"},
		"store.wal_bytes_per_user_byte":  {ratio(float64(st1.AppendedBytes-st0.AppendedBytes), float64(userBytes(wA.acked))), "ratio"},
		"store.syncs_per_s":              {float64(st1.Syncs-st0.Syncs) / wA.elapsed.Seconds(), "1/s"},
		"store.compactions":              {float64(st1.Compactions - st0.Compactions), "count"},
		"store.recovery_s":               {recoveryS, "s"},
		"runtime.gc_cycles_per_op":       {float64(wA.gcCycles) / float64(max(wA.ops(), 1)), "count"},
		"runtime.gc_cpu_fraction":        {wA.gcCPU, "ratio"},
		"ladder.plan_us":                 {mix.Plan.US, "us"},
		"ladder.pqp_us":                  {mix.PQP.US, "us"},
		"ladder.mediator_us":             {mix.Mediator.US, "us"},
		"ladder.tcp_us":                  {mix.TCP.US, "us"},
		"ladder.plan_alloc_bytes":        {mix.Plan.AllocBytes, "B"},
		"ladder.pqp_alloc_bytes":         {mix.PQP.AllocBytes, "B"},
		"ladder.mediator_alloc_bytes":    {mix.Mediator.AllocBytes, "B"},
		"ladder.tcp_alloc_bytes":         {mix.TCP.AllocBytes, "B"},
		"trace.overhead":                 {ratio(percentileMS(wB.queries, 0.5), percentileMS(wA.queries, 0.5)), "ratio"},
	}
	if err := writeLadder(filepath.Join(b.o.out, fmt.Sprintf("ladder-%s-seed%d.json", b.sp.name, b.o.seed)), ladder); err != nil {
		return nil, err
	}
	res := b.result(wA, wB)
	res.Metrics = m
	return res, nil
}

// userBytes sizes the rows a client wrote: string bytes, 8 per number.
func userBytes(batches [][]rel.Tuple) int64 {
	var n int64
	for _, b := range batches {
		for _, t := range b {
			for _, v := range t {
				if v.Kind() == rel.KindString {
					n += int64(len(v.Str()))
				} else {
					n += 8
				}
			}
		}
	}
	return n
}

// writeLadder records the per-class ladder beside the span dump.
func writeLadder(path string, ladder []ladderClass) error {
	data, err := json.MarshalIndent(ladder, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.log, "polybench: %s: "+format+"\n", append([]any{b.sp.name}, args...)...)
}

// result sums the attempted/failed counts of ws and logs each window's
// first failure.
func (b *bench) result(ws ...*window) *result {
	res := &result{}
	for _, w := range ws {
		res.Attempted += w.attempted
		res.Failed += w.failed
		if w.firstErr != nil {
			b.logf("%d of %d operations failed; first: %v", w.failed, w.attempted, w.firstErr)
		}
	}
	res.Correct = res.Failed == 0
	return res
}

// verify runs the answer checks of a finished window and closes the rig.
// For ingest-mix it first reads every acknowledged row back through the
// mediator. Mismatches count as failed operations; only a check that cannot
// run returns an error. The durable store's directory is left for reopen.
func (b *bench) verify(r *rig, w *window) error {
	if err := b.checkAnswers(r, w); err != nil {
		r.close()
		return err
	}
	if r.sys.data.durable != "" {
		s := r.sessions[0]
		ans, err := s.c.Query(s.id, `PFACT [FK >= "G"]`, true)
		w.attempted++
		if err != nil {
			w.fail(fmt.Errorf("reading back acknowledged rows: %w", err))
		} else if d := diffRows(ans.Relation, w.acked, "FD"); d != "" {
			w.fail(fmt.Errorf("acknowledged rows read back through the mediator: %s", d))
		}
	}
	if err := r.close(); err != nil {
		return fmt.Errorf("closing store: %w", err)
	}
	return nil
}

// reopen recovers the closed ingest-mix store from its directory, checks
// that it holds exactly the seed plus the acknowledged rows, and returns
// how long the recovery took.
//
// Recovery of the 20000-row store takes minutes (the snapshot decode
// re-inserts row by row), so it runs against the invocation's deadline: if
// the deadline passes first, the time so far is returned as a lower bound,
// the content check is skipped, and the abandoned recovery ends with the
// process.
func (b *bench) reopen(r *rig, w *window) (float64, error) {
	defer r.sys.removeStore()
	type opened struct {
		st  *store.Store
		err error
	}
	done := make(chan opened, 1)
	t0 := time.Now()
	go func() {
		st, err := store.Open(r.sys.storeDir, r.sys.data.durable, nil, storeOptions)
		done <- opened{st, err}
	}()
	var o opened
	select {
	case o = <-done:
	case <-time.After(time.Until(b.deadline)):
		recoveryS := time.Since(t0).Seconds()
		b.logf("store recovery unfinished after %.1f s: reporting that as a lower bound, reopened-store check skipped", recoveryS)
		return recoveryS, nil
	}
	if o.err != nil {
		return 0, fmt.Errorf("reopening store: %w", o.err)
	}
	st := o.st
	recoveryS := time.Since(t0).Seconds()
	_, got, err := st.DB().View("FACT")
	closeErr := st.Close()
	if err != nil {
		return 0, err
	}
	if closeErr != nil {
		return 0, closeErr
	}
	seed := b.sp.data()
	var want []rel.Tuple
	for _, db := range seed.dbs {
		if db.Name() == seed.durable {
			_, rows, err := db.View("FACT")
			if err != nil {
				return 0, err
			}
			want = append(want, rows...)
		}
	}
	for _, batch := range w.acked {
		want = append(want, batch...)
	}
	w.attempted++
	if d := diffTuples(want, got); d != "" {
		w.fail(fmt.Errorf("reopened store: %s", d))
	}
	return recoveryS, nil
}

// checkAnswers compares every sampled answer's fingerprint with the
// oracle's.
func (b *bench) checkAnswers(r *rig, w *window) error {
	if b.sp.name == "fig1-tcp" {
		want := table9Fingerprint()
		for _, c := range w.checks {
			if c.fp != want {
				w.fail(errors.New("figure 1 answer differs from Table 9"))
			}
		}
		return nil
	}
	data := r.sys.data
	if data.durable != "" {
		data = b.sp.data() // the seed, without the run's inserts
	}
	or := newOracle(data)
	for _, c := range w.checks {
		q := b.sp.seq[c.idx]
		want, err := or.fingerprint(q)
		if err != nil {
			return fmt.Errorf("oracle %q: %w", q.text, err)
		}
		if c.fp != want {
			w.fail(fmt.Errorf("%s answer to %q differs from the reference engine's", q.class, q.text))
		}
	}
	return nil
}

// diffRows checks that p holds exactly the rows of batches, every cell
// originating from source db.
func diffRows(p *core.Relation, batches [][]rel.Tuple, db string) string {
	var want []rel.Tuple
	for _, b := range batches {
		want = append(want, b...)
	}
	got := make([]rel.Tuple, 0, len(p.Tuples))
	for _, t := range p.Tuples {
		for _, c := range t {
			if names := c.O.Names(p.Reg); len(names) != 1 || names[0] != db {
				return fmt.Sprintf("cell %s has origin %s, want {%s}", c.D, c.O.Format(p.Reg), db)
			}
		}
		got = append(got, t.Data())
	}
	return diffTuples(want, got)
}

// diffTuples compares two tuple multisets.
func diffTuples(want, got []rel.Tuple) string {
	count := make(map[string]int, len(want))
	for _, t := range want {
		count[t.Key()]++
	}
	for _, t := range got {
		count[t.Key()]--
	}
	missing, extra := 0, 0
	for _, n := range count {
		if n > 0 {
			missing += n
		} else {
			extra -= n
		}
	}
	if missing == 0 && extra == 0 {
		return ""
	}
	return fmt.Sprintf("%d rows missing, %d unexpected (want %d, got %d)", missing, extra, len(want), len(got))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
