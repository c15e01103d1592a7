package core

import (
	"fmt"
	"io"

	"repro/internal/exec"
	"repro/internal/identity"
	"repro/internal/rel"
	"repro/internal/sourceset"
)

// This file implements morsel-driven intra-operator parallelism for the
// hash operators: the classic shared-nothing partitioned-hashing design
// (Wisconsin parallel hash joins) mapped onto the hash-native kernels. Every
// parallel operator follows the same three phases:
//
//  1. parallel partition — hash every input tuple's data portion once, in
//     fixed-size morsels pulled by pool workers (rel.PartitionOf routes each
//     hash to one of P contiguous hash ranges);
//  2. parallel per-partition build/probe — worker w owns partition w
//     outright: its dedup table, drop index or join buckets hold only
//     hashes in w's range, so builds and tag merges need no locks (every
//     tuple that could deduplicate, match or collide with another shares
//     its partition);
//  3. ordered concat — each partition records, per emitted row, the
//     position its data portion first occurred at in the serial engine's
//     scan order, and a k-way merge re-interleaves the partitions on those
//     positions. The output is therefore cell-for-cell identical to the
//     serial operator's, row order and tags included, and deterministic
//     across runs and partition counts.
//
// The Par* operators are exported with an explicit partition count for
// direct use (and the Par* property suite, parallel_test.go); the serial
// entry points (Project, Union, Difference, Intersect, Join) dispatch here
// on their own when the algebra carries a Parallel configuration and the
// input is at or above the cost threshold — small inputs stay on the
// serial path, whose code is untouched.

// DefaultParallelThreshold is the minimum total input cardinality at which
// the serial entry points switch to the partitioned operators. Below it the
// fixed costs — hash array, per-partition scan, goroutine wakeups, ordered
// merge — outweigh the win; the paper's tiny worked example never crosses
// it. Chosen as roughly the size where partitioned runs break even at two
// workers in the B-PAR family.
const DefaultParallelThreshold = 8192

// Parallel configures morsel-driven intra-operator parallelism on an
// Algebra. One Pool is shared by every operator of every concurrent query
// on the algebra (one pool per PQP), so a mediator's sessions divide the
// machine instead of oversubscribing it.
type Parallel struct {
	// Pool supplies the workers. A nil pool runs partitioned code inline
	// (useful for testing partition counts); operators still go parallel
	// only when the threshold is crossed.
	Pool *exec.Pool
	// Threshold is the minimum total input tuples for the parallel path;
	// <= 0 means DefaultParallelThreshold.
	Threshold int
	// Partitions fixes the partition count; <= 0 means Pool.Workers().
	Partitions int
}

// SetParallel installs (or, with nil, removes) the parallel execution
// configuration. Like the other Algebra knobs it is wiring-time state: set
// it before the algebra is shared across goroutines.
func (a *Algebra) SetParallel(p *Parallel) { a.par = p }

// ParallelConfig returns the installed configuration, nil when serial.
func (a *Algebra) ParallelConfig() *Parallel { return a.par }

// parParts decides whether an operator over n total input tuples runs
// partitioned, returning the partition count (0 = stay serial).
func (a *Algebra) parParts(n int) int {
	if a == nil || a.par == nil {
		return 0
	}
	thr := a.par.Threshold
	if thr <= 0 {
		thr = DefaultParallelThreshold
	}
	if n < thr {
		return 0
	}
	parts := a.par.Partitions
	if parts <= 0 {
		parts = a.par.Pool.Workers()
	}
	if parts < 2 {
		return 0 // one worker: the serial path is the same work minus the merge
	}
	return parts
}

func (a *Algebra) parPool() *exec.Pool {
	if a.par == nil {
		return nil
	}
	return a.par.Pool
}

// morselTuples is the fixed morsel size of the data-parallel scan phases.
// Big enough to amortize the task hand-off, small enough that a hundred
// thousand tuples split into dozens of morsels for work stealing.
const morselTuples = 4096

// morselCount returns how many morselTuples-sized morsels cover n tuples.
func morselCount(n int) int {
	m := (n + morselTuples - 1) / morselTuples
	if m < 1 {
		m = 1
	}
	return m
}

// morselRange returns the [lo, hi) tuple range of morsel i.
func morselRange(n, i int) (int, int) {
	lo := i * morselTuples
	hi := lo + morselTuples
	if hi > n {
		hi = n
	}
	return lo, hi
}

// parOut is one deduplicated output row paired with the global scan
// position of its first occurrence — the sort key of the ordered concat.
type parOut struct {
	pos int
	row Tuple
}

// mergeOrdered re-interleaves the partitions' outputs into the serial
// engine's row order. Each partition list is already ascending in pos (the
// partition scans the global order), so this is a k-way merge of sorted
// runs; with partition counts in the worker-count range the linear head
// scan beats a heap.
func mergeOrdered(out *Relation, parts [][]parOut) {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out.Tuples = make([]Tuple, 0, total)
	heads := make([]int, len(parts))
	for len(out.Tuples) < total {
		best := -1
		for w := range parts {
			if heads[w] >= len(parts[w]) {
				continue
			}
			if best < 0 || parts[w][heads[w]].pos < parts[best][heads[best]].pos {
				best = w
			}
		}
		out.Tuples = append(out.Tuples, parts[best][heads[best]].row)
		heads[best]++
	}
}

// hashAll computes at(i).DataHash64() for i in [0, n) in parallel morsels.
func hashAll(pool *exec.Pool, n int, at func(int) Tuple) []uint64 {
	hashes := make([]uint64, n)
	pool.Do(morselCount(n), func(m int) {
		lo, hi := morselRange(n, m)
		for i := lo; i < hi; i++ {
			hashes[i] = at(i).DataHash64()
		}
	})
	return hashes
}

// partitionPositions radix-scatters the positions [0, n) of a hash array
// into per-partition lists, each ascending — the scan order of every
// partition phase. Two parallel passes keep it O(n) total (not O(parts×n)
// with every worker filtering the whole array) and lock-free: morsel
// workers scatter into morsel-local buckets, then partition workers
// concatenate their own bucket across morsels in morsel order. route maps
// a hash to its partition (rel.PartitionOf for data hashes, idPartOf for
// canonical IDs — which also skips the zero "null" ID by routing it to -1).
func partitionPositions(pool *exec.Pool, parts int, hashes []uint64, route func(uint64) int) [][]int32 {
	n := len(hashes)
	m := morselCount(n)
	local := make([][][]int32, m)
	pool.Do(m, func(mi int) {
		lo, hi := morselRange(n, mi)
		buckets := make([][]int32, parts)
		for i := lo; i < hi; i++ {
			if w := route(hashes[i]); w >= 0 {
				buckets[w] = append(buckets[w], int32(i))
			}
		}
		local[mi] = buckets
	})
	out := make([][]int32, parts)
	pool.Do(parts, func(w int) {
		total := 0
		for mi := range local {
			total += len(local[mi][w])
		}
		list := make([]int32, 0, total)
		for mi := range local {
			list = append(list, local[mi][w]...)
		}
		out[w] = list
	})
	return out
}

// buildPartitionedDataIndex hashes tuples and builds a radix-partitioned
// bucket index over them in parallel — the build-side kernel shared by the
// materializing parDifference/parIntersect and the streaming Difference.
// It returns the index and the hash array (callers reuse the hashes).
func buildPartitionedDataIndex(pool *exec.Pool, parts int, tuples []Tuple) (*rel.PartitionedBucketIndex, []uint64) {
	hashes := hashAll(pool, len(tuples), func(i int) Tuple { return tuples[i] })
	ix := rel.NewPartitionedBucketIndex(parts, len(tuples)/parts+1)
	pos := partitionPositions(pool, parts, hashes, ix.Partition)
	pool.Do(parts, func(w int) {
		for _, i := range pos[w] {
			ix.Add(hashes[i], int(i))
		}
	})
	return ix, hashes
}

// ParUnion is the partitioned Union primitive: identical to Union cell for
// cell and row for row, evaluated over parts hash partitions (parts < 1
// means 1). Union itself dispatches here above the cost threshold.
func (a *Algebra) ParUnion(p1, p2 *Relation, parts int) (*Relation, error) {
	if p1.Degree() != p2.Degree() {
		return nil, fmt.Errorf("core: union of degree %d with degree %d", p1.Degree(), p2.Degree())
	}
	if parts < 1 {
		parts = 1
	}
	return a.parUnion(parts, p1, p2), nil
}

func (a *Algebra) parUnion(parts int, p1, p2 *Relation) *Relation {
	pool := a.parPool()
	n1, n := len(p1.Tuples), len(p1.Tuples)+len(p2.Tuples)
	at := func(i int) Tuple {
		if i < n1 {
			return p1.Tuples[i]
		}
		return p2.Tuples[i-n1]
	}
	hashes := hashAll(pool, n, at)
	pos := partitionPositions(pool, parts, hashes, func(h uint64) int { return rel.PartitionOf(h, parts) })
	lists := make([][]parOut, parts)
	pool.Do(parts, func(w int) {
		out := NewRelation("", p1.Reg, p1.Attrs...)
		ix := newDataIndex(len(pos[w]))
		var list []parOut
		for _, pi := range pos[w] {
			i := int(pi)
			if dedupInsertHashed(out, ix, at(i), hashes[i]) {
				list = append(list, parOut{pos: i, row: out.Tuples[len(out.Tuples)-1]})
			}
		}
		lists[w] = list
	})
	res := NewRelation("", p1.Reg, p1.Attrs...)
	mergeOrdered(res, lists)
	return res
}

// ParProject is the partitioned Project primitive p[X]: identical to
// Project cell for cell and row for row, evaluated over parts hash
// partitions. Project itself dispatches here above the cost threshold.
func (a *Algebra) ParProject(p *Relation, attrs []string, parts int) (*Relation, error) {
	idx := make([]int, len(attrs))
	outAttrs := make([]Attr, len(attrs))
	for i, name := range attrs {
		ci, err := p.Col(name)
		if err != nil {
			return nil, err
		}
		idx[i] = ci
		outAttrs[i] = p.Attrs[ci]
	}
	if parts < 1 {
		parts = 1
	}
	return a.parProject(parts, p, idx, outAttrs), nil
}

// projHash64 hashes the data portion of t's idx-selected columns — exactly
// the DataHash64 of the projected scratch tuple, without building it.
func projHash64(t Tuple, idx []int) uint64 {
	h := uint64(rel.HashFoldInit)
	for _, ci := range idx {
		h = rel.HashFold(h, t[ci].D.Hash64(rel.Seed))
	}
	return h
}

func (a *Algebra) parProject(parts int, p *Relation, idx []int, outAttrs []Attr) *Relation {
	pool := a.parPool()
	n := len(p.Tuples)
	hashes := make([]uint64, n)
	pool.Do(morselCount(n), func(m int) {
		lo, hi := morselRange(n, m)
		for i := lo; i < hi; i++ {
			hashes[i] = projHash64(p.Tuples[i], idx)
		}
	})
	pos := partitionPositions(pool, parts, hashes, func(h uint64) int { return rel.PartitionOf(h, parts) })
	lists := make([][]parOut, parts)
	pool.Do(parts, func(w int) {
		out := NewRelation("", p.Reg, outAttrs...)
		ix := newDataIndex(len(pos[w]))
		scratch := make(Tuple, len(idx))
		var list []parOut
		for _, pi := range pos[w] {
			i := int(pi)
			for j, ci := range idx {
				scratch[j] = p.Tuples[i][ci]
			}
			if dedupInsertHashed(out, ix, scratch, hashes[i]) {
				list = append(list, parOut{pos: i, row: out.Tuples[len(out.Tuples)-1]})
			}
		}
		lists[w] = list
	})
	res := NewRelation("", p.Reg, outAttrs...)
	mergeOrdered(res, lists)
	return res
}

// ParDifference is the partitioned Difference primitive p1 − p2: identical
// to Difference cell for cell and row for row. Difference itself dispatches
// here above the cost threshold.
func (a *Algebra) ParDifference(p1, p2 *Relation, parts int) (*Relation, error) {
	if p1.Degree() != p2.Degree() {
		return nil, fmt.Errorf("core: difference of degree %d with degree %d", p1.Degree(), p2.Degree())
	}
	if parts < 1 {
		parts = 1
	}
	return a.parDifference(parts, p1, p2), nil
}

// originUnionPar computes p(o) with a parallel morsel reduction.
func originUnionPar(pool *exec.Pool, p *Relation) sourceset.Set {
	n := len(p.Tuples)
	m := morselCount(n)
	partials := make([]sourceset.Set, m)
	pool.Do(m, func(mi int) {
		lo, hi := morselRange(n, mi)
		var s sourceset.Set
		for i := lo; i < hi; i++ {
			s = s.Union(p.Tuples[i].OriginUnion())
		}
		partials[mi] = s
	})
	var s sourceset.Set
	for _, part := range partials {
		s = s.Union(part)
	}
	return s
}

func (a *Algebra) parDifference(parts int, p1, p2 *Relation) *Relation {
	pool := a.parPool()
	drop, _ := buildPartitionedDataIndex(pool, parts, p2.Tuples)
	h1 := hashAll(pool, len(p1.Tuples), func(i int) Tuple { return p1.Tuples[i] })
	pos := partitionPositions(pool, parts, h1, drop.Partition)
	p2o := originUnionPar(pool, p2)
	lists := make([][]parOut, parts)
	pool.Do(parts, func(w int) {
		out := NewRelation("", p1.Reg, p1.Attrs...)
		seen := newDataIndex(len(pos[w]))
		var list []parOut
		for _, pi := range pos[w] {
			i := int(pi)
			h := h1[i]
			t := p1.Tuples[i]
			if _, gone := drop.Find(h, func(at int) bool { return p2.Tuples[at].DataEqual(t) }); gone {
				continue
			}
			if _, dup := seen.find(out.Tuples, t, h); dup {
				continue
			}
			row := out.NewRow(len(t))
			for ci, c := range t {
				row[ci] = c.WithIntermediate(p2o)
			}
			seen.add(h, len(out.Tuples))
			out.Tuples = append(out.Tuples, row)
			list = append(list, parOut{pos: i, row: row})
		}
		lists[w] = list
	})
	res := NewRelation("", p1.Reg, p1.Attrs...)
	mergeOrdered(res, lists)
	return res
}

// ParIntersect is the partitioned Intersection: identical to Intersect cell
// for cell and row for row. Intersect itself dispatches here above the cost
// threshold.
func (a *Algebra) ParIntersect(p1, p2 *Relation, parts int) (*Relation, error) {
	if p1.Degree() != p2.Degree() {
		return nil, fmt.Errorf("core: intersect of degree %d with degree %d", p1.Degree(), p2.Degree())
	}
	if parts < 1 {
		parts = 1
	}
	return a.parIntersect(parts, p1, p2), nil
}

func (a *Algebra) parIntersect(parts int, p1, p2 *Relation) *Relation {
	pool := a.parPool()
	index, _ := buildPartitionedDataIndex(pool, parts, p2.Tuples)
	h1 := hashAll(pool, len(p1.Tuples), func(i int) Tuple { return p1.Tuples[i] })
	positions := partitionPositions(pool, parts, h1, index.Partition)
	lists := make([][]parOut, parts)
	pool.Do(parts, func(w int) {
		out := NewRelation("", p1.Reg, p1.Attrs...)
		pos := newDataIndex(len(positions[w]))
		scratch := make(Tuple, p1.Degree())
		var list []parOut
		for _, pi := range positions[w] {
			i := int(pi)
			h := h1[i]
			t := p1.Tuples[i]
			matched := false
			row := scratch[:len(t)]
			index.ForEach(h, func(mi int) bool {
				m := p2.Tuples[mi]
				if !m.DataEqual(t) {
					return true
				}
				if !matched {
					matched = true
					copy(row, t)
				}
				mediators := t.OriginUnion().Union(m.OriginUnion())
				for ci := range row {
					row[ci] = row[ci].MergeTags(m[ci]).WithIntermediate(mediators)
				}
				return true
			})
			if !matched {
				continue
			}
			if dedupInsertHashed(out, pos, row, h) {
				list = append(list, parOut{pos: i, row: out.Tuples[len(out.Tuples)-1]})
			}
		}
		lists[w] = list
	})
	res := NewRelation("", p1.Reg, p1.Attrs...)
	mergeOrdered(res, lists)
	return res
}

// joinIndex is what a hash-join probe needs from a build-side index; the
// serial CSR/map idIndex and the partitioned parIDIndex both satisfy it.
type joinIndex interface {
	lookup(id uint64) []int32
}

// idPartMix spreads the resolver's dense sequential canonical IDs across
// the 64-bit space (Fibonacci hashing) so rel.PartitionOf — which reads
// high bits — balances the ID partitions.
const idPartMix = 0x9E3779B97F4A7C15

func idPartOf(id uint64, parts int) int {
	return rel.PartitionOf(id*idPartMix, parts)
}

// parIDIndex is the partitioned build-side hash-join index: partition w
// holds only canonical IDs with idPartOf(id) == w, so the parallel build
// shares no state between workers. Within a bucket, positions stay in build
// order — the serial probe order.
type parIDIndex struct {
	shards []map[uint64][]int32
}

// buildParIDIndex computes the build side's canonical IDs in parallel
// morsels (CanonicalID is safe for concurrent use and interns one stable ID
// per canonical form) and builds the parts shards in parallel.
func buildParIDIndex(pool *exec.Pool, parts int, res identity.Resolver, tuples []Tuple, yi int) parIDIndex {
	n := len(tuples)
	ids := make([]uint64, n)
	pool.Do(morselCount(n), func(m int) {
		lo, hi := morselRange(n, m)
		for i := lo; i < hi; i++ {
			if tuples[i][yi].D.IsNull() {
				ids[i] = 0 // resolver IDs start at 1; 0 marks "skip"
				continue
			}
			ids[i] = res.CanonicalID(tuples[i][yi].D)
		}
	})
	pos := partitionPositions(pool, parts, ids, func(id uint64) int {
		if id == 0 {
			return -1 // null build key: indexed nowhere
		}
		return idPartOf(id, parts)
	})
	ix := parIDIndex{shards: make([]map[uint64][]int32, parts)}
	pool.Do(parts, func(w int) {
		shard := make(map[uint64][]int32, len(pos[w]))
		for _, pi := range pos[w] {
			id := ids[pi]
			shard[id] = append(shard[id], pi)
		}
		ix.shards[w] = shard
	})
	return ix
}

func (ix parIDIndex) lookup(id uint64) []int32 {
	return ix.shards[idPartOf(id, len(ix.shards))][id]
}

// ParJoin is the partitioned hash Join p1[x = y]p2: identical to Join cell
// for cell and row for row. Join itself dispatches here above the cost
// threshold; non-equality θ falls back to the primitive composition, same
// as Join.
func (a *Algebra) ParJoin(p1 *Relation, x string, theta rel.Theta, p2 *Relation, y string, parts int) (*Relation, error) {
	if theta != rel.ThetaEQ {
		return a.JoinViaPrimitives(p1, x, theta, p2, y)
	}
	xi, err := p1.Col(x)
	if err != nil {
		return nil, err
	}
	yi, err := p2.Col(y)
	if err != nil {
		return nil, err
	}
	coalesce := joinCoalesces(p1.Attrs[xi], p2.Attrs[yi])
	attrs := joinAttrs(p1.Attrs, xi, p2.Name, p2.Attrs, yi, coalesce)
	if parts < 1 {
		parts = 1
	}
	return a.parJoin(parts, p1, xi, p2, yi, coalesce, attrs), nil
}

// parJoin: parallel partitioned build over p2, then a parallel probe over
// p1 in order-preserving morsels. The probe is embarrassingly parallel —
// the built index is read-only and each morsel's output concatenates in
// morsel order, reproducing the serial probe order exactly.
func (a *Algebra) parJoin(parts int, p1 *Relation, xi int, p2 *Relation, yi int, coalesce bool, attrs []Attr) *Relation {
	pool := a.parPool()
	res := a.Resolver()
	index := buildParIDIndex(pool, parts, res, p2.Tuples, yi)
	n := len(p1.Tuples)
	m := morselCount(n)
	outs := make([][]Tuple, m)
	pool.Do(m, func(mi int) {
		lo, hi := morselRange(n, mi)
		scratch := NewRelation("", p1.Reg, attrs...) // morsel-local arena
		var rows []Tuple
		for i := lo; i < hi; i++ {
			t1 := p1.Tuples[i]
			if t1[xi].D.IsNull() {
				continue
			}
			for _, pi := range index.lookup(res.CanonicalID(t1[xi].D)) {
				rows = append(rows, a.joinRow(scratch, t1, xi, p2.Tuples[pi], yi, coalesce))
			}
		}
		outs[mi] = rows
	})
	out := NewRelation("", p1.Reg, attrs...)
	total := 0
	for _, rows := range outs {
		total += len(rows)
	}
	out.Tuples = make([]Tuple, 0, total)
	for _, rows := range outs {
		out.Tuples = append(out.Tuples, rows...)
	}
	return out
}

// ---------------------------------------------------------------------------
// ParallelCursor: the streaming engine's fan-out/re-sequence stage.

// parBatch is one processed output chunk handed from a worker to the
// consumer.
type parBatch struct {
	rows []Tuple
	err  error
}

// slotChunkDepth bounds how many output chunks one in-flight input batch
// may buffer ahead of the consumer. Together with the slot depth and fn's
// per-chunk cap it bounds the cursor's peak buffered rows — a high-fanout
// join cannot materialize a whole batch's expansion at once; its worker
// blocks on emit until the consumer catches up.
const slotChunkDepth = 2

// parallelCursor fans input batches out to pool workers through fn and
// re-sequences the results to input order: a dispatcher pulls batches,
// queues one result slot per batch (bounding the batches in flight), and
// hands the batch to a pool worker, which streams its output chunks into
// the slot; Next consumes slots in queue order, chunks in emit order, so
// output order is input order regardless of which worker finishes first.
type parallelCursor struct {
	header
	in     Cursor
	pool   *exec.Pool
	fn     func(batch []Tuple, emit func([]Tuple) bool) error
	slots  chan chan parBatch
	cur    chan parBatch // slot currently being consumed
	stop   chan struct{}
	done   chan struct{}
	err    error
	closed bool
}

// ParallelCursor wraps in so that fn runs on pool workers, up to depth
// input batches ahead of and concurrently with the consumer, with output
// re-sequenced to input order. fn processes one input batch and hands its
// output to emit chunk by chunk (rel.DefaultBatchSize-ish chunks; empty
// chunks are dropped); emit applies flow control and returns false when
// the cursor is closing, at which point fn must abandon its batch. fn
// must be safe for concurrent invocation on distinct batches, and each
// emitted chunk must be immutable once handed over. The first error —
// fn's or the input's, io.EOF included — is delivered in input order and
// latches.
func ParallelCursor(in Cursor, pool *exec.Pool, depth int, fn func(batch []Tuple, emit func([]Tuple) bool) error) Cursor {
	if depth < 1 {
		depth = 1
	}
	c := &parallelCursor{
		header: header{name: in.Name(), attrs: in.Attrs(), reg: in.Registry()},
		in:     in,
		pool:   pool,
		fn:     fn,
		slots:  make(chan chan parBatch, depth),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go c.dispatch()
	return c
}

func (c *parallelCursor) dispatch() {
	defer close(c.done)
	defer close(c.slots)
	for {
		select {
		case <-c.stop:
			return
		default:
		}
		batch, err := c.in.Next()
		if err != nil {
			slot := make(chan parBatch, 1)
			slot <- parBatch{err: err}
			close(slot)
			select {
			case c.slots <- slot:
			case <-c.stop:
			}
			return
		}
		slot := make(chan parBatch, slotChunkDepth)
		select {
		case c.slots <- slot: // blocks at depth batches in flight
		case <-c.stop:
			return
		}
		b := batch
		c.pool.Submit(func() {
			defer close(slot)
			ferr := c.fn(b, func(rows []Tuple) bool {
				if len(rows) == 0 {
					return true
				}
				select {
				case slot <- parBatch{rows: rows}:
					return true
				case <-c.stop:
					return false
				}
			})
			if ferr != nil {
				select {
				case slot <- parBatch{err: ferr}:
				case <-c.stop:
				}
			}
		})
	}
}

func (c *parallelCursor) Next() ([]Tuple, error) {
	if c.err != nil {
		return nil, c.err
	}
	for {
		if c.cur == nil {
			slot, ok := <-c.slots
			if !ok {
				// Dispatcher stopped without a terminal slot (Close raced
				// it): treat as exhaustion.
				c.err = io.EOF
				return nil, io.EOF
			}
			c.cur = slot
		}
		pb, ok := <-c.cur
		if !ok {
			c.cur = nil // slot exhausted; move to the next input batch
			continue
		}
		if pb.err != nil {
			c.err = pb.err
			return nil, pb.err
		}
		return pb.rows, nil // emit drops empty chunks
	}
}

func (c *parallelCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.err = io.EOF
	close(c.stop)
	select {
	case <-c.done:
		return c.in.Close()
	default:
		// The dispatcher may be parked inside in.Next (a stalled remote
		// stream). Close the inner cursor the moment it returns, off the
		// caller's goroutine — same policy as rel.Prefetch.
		go func() {
			<-c.done
			c.in.Close()
		}()
		return nil
	}
}
