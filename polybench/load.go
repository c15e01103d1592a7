package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rel"
	"repro/internal/wire"
)

// answerCheck is one sampled answer awaiting the oracle: the request's
// index in the sequence and the fingerprint of what the client received.
type answerCheck struct {
	idx int
	fp  uint64
}

// window is what one measured run of the load recorded.
type window struct {
	elapsed     time.Duration
	queries     []time.Duration
	inserts     []time.Duration
	insertRows  int
	attempted   int
	failed      int
	firstErr    error
	checks      []answerCheck
	answerCells int64
	retries     int
	hedges      int
	acked       [][]rel.Tuple
	// Whole-process runtime deltas over the window.
	allocBytes uint64
	gcCycles   uint32
	gcCPU      float64
}

func (w *window) ops() int { return len(w.queries) + len(w.inserts) }

func (w *window) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// runWindow drives the load for d: each session runs a closed loop over the
// shared request sequence from offset, and ingest-mix's writer issues its
// batches on a fixed schedule spread over d (finishing late batches after
// d, so every run writes the same rows). Answers are fingerprinted for the
// sampled checks after their latency sample closes; the oracle comparison
// runs later, outside the window.
func runWindow(sp *spec, sessions []*session, writer *wire.Client, batches [][]rel.Tuple, d time.Duration, offset int, tr *tracer) *window {
	w := &window{}
	var mu sync.Mutex
	next := atomic.Int64{}
	next.Store(int64(offset))
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPU()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, s := range sessions {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lats []time.Duration
			var checks []answerCheck
			var cells int64
			var retries, hedges, failed int
			var firstErr error
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				q := sp.seq[i%len(sp.seq)]
				var id int32
				if tr != nil {
					id = tr.clientBegin("client.query", s.id)
				}
				t0 := time.Now()
				ans, err := s.c.Query(s.id, q.text, q.algebraic)
				lat := time.Since(t0)
				if tr != nil {
					tr.end(id)
				}
				lats = append(lats, lat)
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("%s query %q: %w", q.class, q.text, err)
					}
					continue
				}
				cells += int64(ans.Relation.Cardinality() * ans.Relation.Degree())
				retries += ans.Diag.Retries
				hedges += ans.Diag.Hedges
				if q.check {
					checks = append(checks, answerCheck{idx: i % len(sp.seq), fp: fingerprint(ans.Relation)})
				}
			}
			mu.Lock()
			w.queries = append(w.queries, lats...)
			w.checks = append(w.checks, checks...)
			w.answerCells += cells
			w.retries += retries
			w.hedges += hedges
			w.attempted += len(lats)
			w.failed += failed
			if w.firstErr == nil {
				w.firstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	if writer != nil && len(batches) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			every := d / time.Duration(len(batches))
			for j, b := range batches {
				time.Sleep(time.Until(start.Add(time.Duration(j) * every)))
				var id int32
				if tr != nil {
					id = tr.clientBegin("writer.insert", "")
				}
				t0 := time.Now()
				err := writer.Insert("FACT", b)
				lat := time.Since(t0)
				if tr != nil {
					tr.end(id)
				}
				mu.Lock()
				w.inserts = append(w.inserts, lat)
				w.attempted++
				if err != nil {
					w.fail(fmt.Errorf("insert batch %d: %w", j, err))
				} else {
					w.acked = append(w.acked, b)
					w.insertRows += len(b)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	w.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	w.gcCycles = ms1.NumGC - ms0.NumGC
	gc1 := gcCPU()
	if dt := gc1[1] - gc0[1]; dt > 0 {
		w.gcCPU = (gc1[0] - gc0[0]) / dt
	}
	return w
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// percentileMS returns the nearest-rank p-th percentile of ds in ms.
func percentileMS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p*float64(len(s))+0.5) - 1
	i = max(0, min(i, len(s)-1))
	return float64(s[i]) / float64(time.Millisecond)
}

func sumMS(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return float64(t) / float64(time.Millisecond)
}
