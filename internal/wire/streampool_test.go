package wire

// Stream-pool tests: streams run on the client's pooled connections. A
// stream that drains to its Done or Err frame hands its connection back; one
// closed early retires it; a stale idle connection is retried on a fresh
// dial; and streams beyond maxConns never wait on the bound. Server accepts
// are counted through ConnHook.

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lqp"
	"repro/internal/rel"
	"repro/internal/sourceset"
)

// countingServer starts srv behind a ConnHook that counts accepted
// connections, and dials a client with a pool of maxConns.
func countingServer(t *testing.T, srv *Server, maxConns int) (*Client, *atomic.Int64) {
	t.Helper()
	var accepts atomic.Int64
	srv.ConnHook = func(conn net.Conn) net.Conn {
		accepts.Add(1)
		return conn
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := DialPool(addr, maxConns)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, &accepts
}

func drainCount(t *testing.T, cur rel.Cursor, want int) {
	t.Helper()
	got, err := rel.Drain(cur)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != want {
		t.Fatalf("stream retrieved %d tuples, want %d", got.Cardinality(), want)
	}
}

// TestStreamsShareOnePooledConn: sequentially drained streams of every kind,
// interleaved with round trips, all run on the one connection Dial opened.
func TestStreamsShareOnePooledConn(t *testing.T) {
	c, accepts := countingServer(t, NewServer(streamDB(600)), DefaultMaxConns)
	for i := 0; i < 5; i++ {
		cur, err := c.Open(lqp.Retrieve("BIG"))
		if err != nil {
			t.Fatal(err)
		}
		drainCount(t, cur, 600)
		cur.Close()
		if _, err := c.Execute(lqp.Retrieve("BIG")); err != nil {
			t.Fatal(err)
		}
		cur, err = c.OpenPlan(lqp.PlanOf(lqp.Retrieve("BIG"), lqp.Select("BIG", "K", rel.ThetaLT, rel.Int(10))))
		if err != nil {
			t.Fatal(err)
		}
		drainCount(t, cur, 10)
		cur.Close()
	}

	m := &fixedMediator{p: core.NewRelation("P", sourceset.NewRegistry(), core.Attr{Name: "A"})}
	for i := 0; i < 7; i++ {
		m.p.Tuples = append(m.p.Tuples, core.Tuple{{D: rel.Int(int64(i))}})
	}
	mc, maccepts := countingServer(t, NewMediatorServer(m), DefaultMaxConns)
	for i := 0; i < 5; i++ {
		cur, _, err := mc.OpenQuery("", "q", false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Drain(cur)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cardinality() != 7 {
			t.Fatalf("queryopen streamed %d tuples, want 7", got.Cardinality())
		}
		if _, ok := cur.(Diagnosed).Diagnostics(); !ok {
			t.Fatal("drained stream carried no diagnostics")
		}
		cur.Close()
		if _, err := mc.Query("", "q", false); err != nil {
			t.Fatal(err)
		}
	}
	if n, mn := accepts.Load(), maccepts.Load(); n != 1 || mn != 1 {
		t.Fatalf("server accepted %d (LQP) and %d (mediator) connections, want 1 each", n, mn)
	}
}

// failingLQP serves a database whose streams fail after their first batch,
// so the server ends them with an Err frame.
type failingLQP struct{ *lqp.Local }

func (f failingLQP) Open(op lqp.Op) (rel.Cursor, error) {
	cur, err := f.Local.Open(op)
	if err != nil {
		return nil, err
	}
	return &failAfterFirst{Cursor: cur}, nil
}

type failAfterFirst struct {
	rel.Cursor
	batches int
}

func (c *failAfterFirst) Next() ([]rel.Tuple, error) {
	if c.batches++; c.batches > 1 {
		return nil, errors.New("disk on fire")
	}
	return c.Cursor.Next()
}

// TestStreamErrorLeavesConnReusable: a stream refused in its header, and one
// ending in a mid-stream Err frame, both hand their connection back.
func TestStreamErrorLeavesConnReusable(t *testing.T) {
	c, accepts := countingServer(t, NewServerFor(failingLQP{lqp.NewLocal(streamDB(1000))}), DefaultMaxConns)
	if _, err := c.Open(lqp.Retrieve("MISSING")); err == nil {
		t.Fatal("missing relation accepted")
	}
	cur, err := c.Open(lqp.Retrieve("BIG"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err == nil || err.Error() != "disk on fire" {
		t.Fatalf("second batch: err = %v, want the server's error frame", err)
	}
	if _, err := cur.Next(); err != io.EOF {
		t.Fatalf("Next after an error frame = %v, want io.EOF", err)
	}
	cur.Close()
	if r, err := c.Execute(lqp.Retrieve("BIG")); err != nil || r.Cardinality() != 1000 {
		t.Fatalf("round trip after failed streams: %v", err)
	}
	if n := accepts.Load(); n != 1 {
		t.Fatalf("server accepted %d connections, want 1", n)
	}
}

// TestStreamEarlyCloseRetiresConn: a stream closed before its Done frame
// retires its connection (unread frames poison it); the next stream dials
// afresh and succeeds.
func TestStreamEarlyCloseRetiresConn(t *testing.T) {
	c, accepts := countingServer(t, NewServer(streamDB(100000)), DefaultMaxConns)
	cur, err := c.Open(lqp.Retrieve("BIG"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	c.mu.Lock()
	live, idle := len(c.live), len(c.idle)
	c.mu.Unlock()
	if live != 0 || idle != 0 {
		t.Fatalf("early-closed stream left %d live / %d idle connections, want none", live, idle)
	}
	cur, err = c.Open(lqp.Retrieve("BIG"))
	if err != nil {
		t.Fatal(err)
	}
	drainCount(t, cur, 100000)
	cur.Close()
	if n := accepts.Load(); n != 2 {
		t.Fatalf("server accepted %d connections, want 2", n)
	}
}

// TestStreamSurvivesServerIdleDrop: a pooled connection the server dropped
// at its IdleTimeout fails the stream's header exchange; the stream flushes
// the stale pool and retries once on a fresh dial, transparently.
func TestStreamSurvivesServerIdleDrop(t *testing.T) {
	srv := NewServer(streamDB(25))
	srv.IdleTimeout = 50 * time.Millisecond
	c, accepts := countingServer(t, srv, DefaultMaxConns)
	time.Sleep(200 * time.Millisecond)
	cur, err := c.Open(lqp.Retrieve("BIG"))
	if err != nil {
		t.Fatalf("stream after server idle-drop: %v", err)
	}
	drainCount(t, cur, 25)
	cur.Close()
	if n := accepts.Load(); n != 2 {
		t.Fatalf("server accepted %d connections, want 2 (the dropped one and the retry)", n)
	}
}

// TestStreamsBeyondMaxConnsNeverBlock: more concurrent streams than the pool
// bound all open at once, a round trip still runs beside them, and once they
// drain the pool shrinks back to maxConns.
func TestStreamsBeyondMaxConnsNeverBlock(t *testing.T) {
	const maxConns, streams = 2, 5
	c, _ := countingServer(t, NewServer(streamDB(2000)), maxConns)
	done := make(chan []rel.Cursor, 1)
	go func() {
		var curs []rel.Cursor
		for i := 0; i < streams; i++ {
			cur, err := c.Open(lqp.Retrieve("BIG"))
			if err != nil {
				t.Error(err)
				break
			}
			curs = append(curs, cur)
		}
		if _, err := c.Execute(lqp.Retrieve("BIG")); err != nil {
			t.Error(err)
		}
		done <- curs
	}()
	var curs []rel.Cursor
	select {
	case curs = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("streams beyond maxConns blocked")
	}
	if len(curs) != streams {
		t.FailNow()
	}
	for _, cur := range curs {
		drainCount(t, cur, 2000)
		cur.Close()
	}
	c.mu.Lock()
	live, idle, n := len(c.live), len(c.idle), c.nconns
	c.mu.Unlock()
	if live != maxConns || idle != maxConns || n != maxConns {
		t.Fatalf("after draining: %d live, %d idle, %d counted connections; want %d each", live, idle, n, maxConns)
	}
}
