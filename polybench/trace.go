package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/federation"
	"repro/internal/lqp"
	"repro/internal/rel"
	"repro/internal/wire"
)

// The traced run records one span per call at every wrapped layer boundary.
// The program passes no request context between layers, so the wrappers
// link a span to its parent through the goroutine that made the call:
//
//   - a client span is found by session ID (each session runs one query at a
//     time);
//   - the mediator pushes its span on its goroutine's stack, and the PQP
//     binds the registry LQPs for a query on that same goroutine
//     (federation.Collectable), so the bound wrapper inherits the span;
//   - a federation span is pushed on the goroutine that runs it, and the
//     federation layer calls a wire leg either on that goroutine (cursor
//     Next) or on a goroutine it starts for the call (opens and unary
//     calls, found through the "created by ... in goroutine N" line of the
//     leg's stack).
//
// Server-side spans (lqpd.*, store.insert) run on the servers' connection
// goroutines and carry no request; the metrics use their per-query totals.

// span is one timed call at a layer boundary.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0: none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a traced window in memory.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []span               // span ID i is spans[i-1]
	stacks   map[uint64][]int32   // goroutine ID → open spans pushed on it
	sessions map[string][2]uint64 // session → (request, client span ID)
	reqs     atomic.Uint64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stacks: make(map[uint64][]int32), sessions: make(map[string][2]uint64)}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, req uint64, parent int32) int32 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, Req: req, ID: id, Parent: parent, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// push marks span id as the innermost open span of goroutine g.
func (t *tracer) push(g uint64, id int32) {
	t.mu.Lock()
	t.stacks[g] = append(t.stacks[g], id)
	t.mu.Unlock()
}

func (t *tracer) pop(g uint64) {
	t.mu.Lock()
	s := t.stacks[g]
	if len(s) <= 1 {
		delete(t.stacks, g)
	} else {
		t.stacks[g] = s[:len(s)-1]
	}
	t.mu.Unlock()
}

// top returns the innermost open span of goroutine g and its request.
func (t *tracer) top(g uint64) (req uint64, id int32, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stacks[g]
	if len(s) == 0 {
		return 0, 0, false
	}
	id = s[len(s)-1]
	return t.spans[id-1].Req, id, true
}

// clientBegin opens the client span of one request on session.
func (t *tracer) clientBegin(name, session string) int32 {
	req := t.reqs.Add(1)
	id := t.begin(name, req, 0)
	if session != "" {
		t.mu.Lock()
		t.sessions[session] = [2]uint64{req, uint64(id)}
		t.mu.Unlock()
	}
	return id
}

func (t *tracer) session(s string) (req uint64, id int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.sessions[s]
	return v[0], int32(v[1])
}

// reset drops everything recorded so far; nothing may be in flight.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = nil
	t.stacks = make(map[uint64][]int32)
	t.sessions = make(map[string][2]uint64)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid returns the calling goroutine's ID and, when creator is set, the ID
// of the goroutine that started it (0 if the stack does not name one).
func goid(creator bool) (self, parent uint64) {
	var small [64]byte
	buf := small[:]
	if creator {
		buf = make([]byte, 16<<10)
	}
	buf = buf[:runtime.Stack(buf, false)]
	self = leadingID(bytes.TrimPrefix(buf, []byte("goroutine ")))
	if creator {
		if i := bytes.LastIndex(buf, []byte(" in goroutine ")); i >= 0 {
			parent = leadingID(buf[i+len(" in goroutine "):])
		}
	}
	return self, parent
}

func leadingID(b []byte) uint64 {
	n := 0
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		n++
	}
	id, _ := strconv.ParseUint(string(b[:n]), 10, 64)
	return id
}

// tracedMediator times Query on the mediator the wire server fronts.
type tracedMediator struct {
	wire.Mediator
	t *tracer
}

func (m *tracedMediator) Query(session, text string, algebraic bool) (*wire.MediatedAnswer, error) {
	req, parent := m.t.session(session)
	id := m.t.begin("mediator.query", req, parent)
	g, _ := goid(false)
	m.t.push(g, id)
	defer func() {
		m.t.pop(g)
		m.t.end(id)
	}()
	return m.Mediator.Query(session, text, algebraic)
}

// fedLQP wraps one LQP returned by the federation registry. The PQP binds
// it per query (Bind), which fixes the query's request and mediator span.
type fedLQP struct {
	t      *tracer
	inner  lqp.LQP
	req    uint64
	parent int32
}

func (f *fedLQP) Bind(d *federation.Diagnostics) lqp.LQP {
	inner := f.inner
	if c, ok := inner.(federation.Collectable); ok {
		inner = c.Bind(d)
	}
	g, _ := goid(false)
	req, parent, _ := f.t.top(g)
	return &fedLQP{t: f.t, inner: inner, req: req, parent: parent}
}

func (f *fedLQP) Name() string                 { return f.inner.Name() }
func (f *fedLQP) Relations() ([]string, error) { return f.inner.Relations() }

func (f *fedLQP) Stats() ([]lqp.RelationStats, error) {
	st, _, err := lqp.StatsOf(f.inner)
	return st, err
}

// call runs fn inside a federation span pushed on the calling goroutine.
func (f *fedLQP) call(name string, fn func()) {
	if f.req == 0 {
		fn()
		return
	}
	id := f.t.begin(name, f.req, f.parent)
	g, _ := goid(false)
	f.t.push(g, id)
	fn()
	f.t.pop(g)
	f.t.end(id)
}

func (f *fedLQP) Execute(op lqp.Op) (r *rel.Relation, err error) {
	f.call("federation.execute", func() { r, err = f.inner.Execute(op) })
	return r, err
}

func (f *fedLQP) ExecutePlan(p lqp.Plan) (r *rel.Relation, err error) {
	f.call("federation.executeplan", func() { r, err = lqp.ExecutePlanOn(f.inner, p) })
	return r, err
}

func (f *fedLQP) Open(op lqp.Op) (c rel.Cursor, err error) {
	f.call("federation.open", func() { c, err = lqp.OpenLQP(f.inner, op) })
	return f.cursor(c, err)
}

func (f *fedLQP) OpenPlan(p lqp.Plan) (c rel.Cursor, err error) {
	f.call("federation.openplan", func() { c, err = lqp.OpenPlanOn(f.inner, p) })
	return f.cursor(c, err)
}

func (f *fedLQP) cursor(c rel.Cursor, err error) (rel.Cursor, error) {
	if err != nil || f.req == 0 {
		return c, err
	}
	return &fedCursor{Cursor: c, f: f}, nil
}

// fedCursor times each batch pulled through the federation layer.
type fedCursor struct {
	rel.Cursor
	f *fedLQP
}

func (c *fedCursor) Next() (b []rel.Tuple, err error) {
	c.f.call("federation.next", func() { b, err = c.Cursor.Next() })
	return b, err
}

// legLQP wraps one wire.Client leg (behind lqp.Counting) inside the
// federation registry.
type legLQP struct {
	t     *tracer
	inner lqp.LQP
}

func (l *legLQP) Name() string                 { return l.inner.Name() }
func (l *legLQP) Relations() ([]string, error) { return l.inner.Relations() }

func (l *legLQP) Stats() ([]lqp.RelationStats, error) {
	st, _, err := lqp.StatsOf(l.inner)
	return st, err
}

// call runs fn in a leg span whose parent is the federation span open on
// the goroutine that started this one.
func (l *legLQP) call(name string, fn func()) {
	_, creator := goid(true)
	req, parent, ok := l.t.top(creator)
	if !ok {
		fn()
		return
	}
	id := l.t.begin(name, req, parent)
	fn()
	l.t.end(id)
}

func (l *legLQP) Execute(op lqp.Op) (r *rel.Relation, err error) {
	l.call("lqp.execute", func() { r, err = l.inner.Execute(op) })
	return r, err
}

func (l *legLQP) ExecutePlan(p lqp.Plan) (r *rel.Relation, err error) {
	l.call("lqp.executeplan", func() { r, err = lqp.ExecutePlanOn(l.inner, p) })
	return r, err
}

func (l *legLQP) Open(op lqp.Op) (c rel.Cursor, err error) {
	l.call("lqp.open", func() { c, err = lqp.OpenLQP(l.inner, op) })
	return l.cursor(c, err)
}

func (l *legLQP) OpenPlan(p lqp.Plan) (c rel.Cursor, err error) {
	l.call("lqp.openplan", func() { c, err = lqp.OpenPlanOn(l.inner, p) })
	return l.cursor(c, err)
}

func (l *legLQP) cursor(c rel.Cursor, err error) (rel.Cursor, error) {
	if err != nil {
		return c, err
	}
	return &legCursor{Cursor: c, t: l.t}, nil
}

// legCursor times each batch read off a wire stream; the federation cursor
// pulling it runs on the same goroutine.
type legCursor struct {
	rel.Cursor
	t *tracer
}

func (c *legCursor) Next() ([]rel.Tuple, error) {
	g, _ := goid(false)
	req, parent, ok := c.t.top(g)
	if !ok {
		return c.Cursor.Next()
	}
	id := c.t.begin("lqp.next", req, parent)
	b, err := c.Cursor.Next()
	c.t.end(id)
	return b, err
}

// servedLQP wraps the wire.LocalLQP a wire server serves: the lqpd side of
// every leg, and the durable store's inserts.
type servedLQP struct {
	t     *tracer
	inner wire.LocalLQP
}

func (s *servedLQP) timed(name string, fn func()) {
	id := s.t.begin(name, 0, 0)
	fn()
	s.t.end(id)
}

func (s *servedLQP) Name() string                 { return s.inner.Name() }
func (s *servedLQP) Relations() ([]string, error) { return s.inner.Relations() }

func (s *servedLQP) Stats() (st []lqp.RelationStats, err error) {
	s.timed("lqpd.stats", func() { st, err = s.inner.Stats() })
	return st, err
}

func (s *servedLQP) Execute(op lqp.Op) (r *rel.Relation, err error) {
	s.timed("lqpd.execute", func() { r, err = s.inner.Execute(op) })
	return r, err
}

func (s *servedLQP) ExecutePlan(p lqp.Plan) (r *rel.Relation, err error) {
	s.timed("lqpd.executeplan", func() { r, err = s.inner.ExecutePlan(p) })
	return r, err
}

func (s *servedLQP) Open(op lqp.Op) (c rel.Cursor, err error) {
	s.timed("lqpd.open", func() { c, err = s.inner.Open(op) })
	return s.cursor(c, err)
}

func (s *servedLQP) OpenPlan(p lqp.Plan) (c rel.Cursor, err error) {
	s.timed("lqpd.openplan", func() { c, err = s.inner.OpenPlan(p) })
	return s.cursor(c, err)
}

// cursor times a served stream's batches, keeping the columnar capability
// the wire server streams binary frames from.
func (s *servedLQP) cursor(c rel.Cursor, err error) (rel.Cursor, error) {
	if err != nil {
		return c, err
	}
	sc := &servedCursor{Cursor: c, s: s}
	if cc, ok := c.(rel.ColCursor); ok {
		return &servedColCursor{servedCursor: sc, cc: cc}, nil
	}
	return sc, nil
}

// Insert implements lqp.Inserter for servers whose LQP accepts writes.
func (s *servedLQP) Insert(relation string, tuples []rel.Tuple) (err error) {
	ins, ok := s.inner.(lqp.Inserter)
	if !ok {
		return fmt.Errorf("polybench: %s does not accept writes", s.inner.Name())
	}
	s.timed("store.insert", func() { err = ins.Insert(relation, tuples) })
	return err
}

type servedCursor struct {
	rel.Cursor
	s *servedLQP
}

func (c *servedCursor) Next() (b []rel.Tuple, err error) {
	c.s.timed("lqpd.next", func() { b, err = c.Cursor.Next() })
	return b, err
}

type servedColCursor struct {
	*servedCursor
	cc rel.ColCursor
}

func (c *servedColCursor) NextCol() (b *rel.ColBatch, err error) {
	c.s.timed("lqpd.next", func() { b, err = c.cc.NextCol() })
	return b, err
}

// byteCounter is a wire.Server ConnHook that counts every byte a server's
// connections read and write.
type byteCounter struct {
	n atomic.Int64
	// skip, while set, leaves the next accepted connection uncounted.
	skip atomic.Bool
}

func (b *byteCounter) hook(c net.Conn) net.Conn {
	if b.skip.Swap(false) {
		return c
	}
	return &countedConn{Conn: c, n: &b.n}
}

type countedConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// layerTimes sums span time per layer over one traced window.
type layerTimes struct {
	total map[string]time.Duration // by span name prefix
	self  map[string]time.Duration
	count map[string]int
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// summarize computes each layer's total and self time. A span's self time
// is its duration minus the union of its children's intervals clipped to
// it, so children that overlap one another (prefetching cursors) count
// once.
func summarize(spans []span) layerTimes {
	lt := layerTimes{total: map[string]time.Duration{}, self: map[string]time.Duration{}, count: map[string]int{}}
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		layer := layerOf(s.Name)
		d := s.End - s.Start
		lt.total[layer] += time.Duration(d)
		lt.self[layer] += time.Duration(d - covered(children[s.ID], s.Start, s.End))
		if s.Name != "federation.next" && s.Name != "lqp.next" && s.Name != "lqpd.next" {
			lt.count[layer]++
		}
	}
	return lt
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if a > curHi {
			sum += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return sum + curHi - curLo
}
