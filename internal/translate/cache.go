package translate

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// This file implements the plan cache of the mediator service layer: the
// translation pipeline — Analyze, the two interpreter passes, and above all
// the cost-based Query Optimizer with its chain simulation (reorder.go) —
// is pure function of (query, schema, statistics, optimizer options), so a
// long-lived PQP serving many clients runs it once per distinct query and
// replays the result for every later request. Matrices handed out by the
// cache are shared, immutable plan objects: nothing in either execution
// engine mutates a Matrix (rows are read-only during execution), so one
// cached plan may be executed by any number of goroutines concurrently.

// PlanKey identifies one cacheable translation: the normalized query text
// (the algebraic expression's canonical rendering — both the SQL front end
// and the algebra parser funnel into it, so formatting differences in the
// source text collapse), the planner the query was planned by, the
// statistics-catalog version the optimizer consulted, and the optimizer
// option fingerprint. Any component changing re-plans; everything else hits.
type PlanKey struct {
	// Query is the canonical query text (Expr.String()).
	Query string
	// Planner fingerprints the planning context fixed at construction —
	// for a PQP: its schema, LQP set (and pushdown capabilities) and
	// resolver. It must be process-unique per planner instance (the PQP
	// uses a monotonic ID, never an address — a freed planner's address
	// can be reused by its successor).
	Planner string
	// Stats fingerprints the statistics the optimizer consulted: catalog
	// instance identity plus stats.Catalog.Version() at planning time (""
	// when the planner ran without statistics). The instance identity
	// matters: a re-collection (pqp.CollectStats) installs a brand-new
	// catalog whose version counter restarts and can land on the old
	// value, and plans cached under the stale cardinalities must not hit.
	Stats string
	// Options fingerprints the optimizer options (enabled passes, resolver
	// exactness).
	Options string
}

// CachedPlan is one cached translation: every artifact of Figure 2's
// pipeline up to (but excluding) execution. All four matrices are immutable
// and shared between the cache and every Result that hits.
type CachedPlan struct {
	// POM is the Polygen Operation Matrix (Syntax Analyzer output).
	POM *Matrix
	// Half is the half-processed IOM (pass one output).
	Half *Matrix
	// IOM is the Intermediate Operation Matrix (pass two output).
	IOM *Matrix
	// Plan is the optimized IOM the engines execute.
	Plan *Matrix
}

// CacheStats is a point-in-time snapshot of a PlanCache's counters.
//
// Hits, Misses and Evictions are monotonic: they only ever grow over a
// cache's lifetime (Reset is the single exception, and it is a wiring-time
// operation, not something concurrent with serving). Introspection reads —
// the V$PLAN_CACHE virtual table, the /metrics endpoint, a test polling
// Stats in a loop — may therefore assume that for any two snapshots taken
// t1 ≤ t2, each counter at t2 is ≥ its value at t1, and that Hits+Misses
// equals the number of Get calls issued so far. Entries is a gauge.
type CacheStats struct {
	Hits, Misses uint64
	// Entries is the number of plans currently cached.
	Entries int
	// Evictions counts plans dropped by the LRU bound.
	Evictions uint64
}

// DefaultPlanCacheSize bounds a plan cache constructed with a non-positive
// capacity: generous for any interactive workload, small enough that even
// pathological query generators cannot balloon the mediator's memory.
const DefaultPlanCacheSize = 512

// PlanCache is a bounded, concurrency-safe LRU cache of translated plans.
// One cache serves one PQP; sharing one across several is safe (the key
// carries each planner's fingerprint) but entries are never shared between
// planners, so it only pools the capacity bound.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List                // front = most recently used
	entries map[PlanKey]*list.Element // value: *cacheEntry

	// The counters are atomics, not fields under mu, so introspection
	// (Stats) never contends with the Get/Put fast path beyond the map
	// lock it already takes for Entries — and so each counter is
	// individually monotonic even when read mid-operation. A Stats
	// snapshot is not a single linearization point across all three
	// counters; the monotonicity and Hits+Misses == Gets guarantees
	// documented on CacheStats are per-counter and hold regardless.
	hits, misses, evictions atomic.Uint64
}

type cacheEntry struct {
	key  PlanKey
	plan *CachedPlan
}

// NewPlanCache returns a cache bounded to capacity plans (non-positive means
// DefaultPlanCacheSize).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	return &PlanCache{cap: capacity, order: list.New(), entries: make(map[PlanKey]*list.Element)}
}

// Get returns the cached plan for k, marking it most recently used.
func (c *PlanCache) Get(k PlanKey) (*CachedPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).plan, true
}

// Put stores the plan for k, evicting the least recently used entry when the
// cache is full. Concurrent Puts for the same key are idempotent — the
// pipeline is deterministic, so whichever plan lands last is equivalent.
func (c *PlanCache) Put(k PlanKey, p *CachedPlan) {
	if p == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheEntry).plan = p
		c.order.MoveToFront(el)
		return
	}
	c.entries[k] = c.order.PushFront(&cacheEntry{key: k, plan: p})
	for len(c.entries) > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// Cap returns the cache's capacity bound in plans.
func (c *PlanCache) Cap() int { return c.cap }

// Stats returns a snapshot of the cache counters. It is safe to call
// concurrently with Get/Put from any number of goroutines; see CacheStats
// for the monotonicity contract introspectors may rely on.
func (c *PlanCache) Stats() CacheStats {
	s := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	c.mu.Lock()
	s.Entries = len(c.entries)
	c.mu.Unlock()
	return s
}

// Reset empties the cache and zeroes the counters. It is a wiring-time
// operation: calling it while the cache serves queries breaks the
// monotonicity contract introspection relies on.
func (c *PlanCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.entries = make(map[PlanKey]*list.Element)
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
}
