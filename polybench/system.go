package main

import (
	"fmt"
	"os"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/identity"
	"repro/internal/lqp"
	"repro/internal/mediator"
	"repro/internal/pqp"
	"repro/internal/sourceset"
	"repro/internal/store"
	"repro/internal/wire"
)

// federationData is a workload's generated local databases and polygen
// schema, before anything serves them.
type federationData struct {
	name     string
	schema   *core.Schema
	reg      *sourceset.Registry
	resolver identity.Resolver
	dbs      []*catalog.Database
	// durable names the database served from a store.Store ("" for none).
	durable string
}

// storeOptions is the ingest workload's flush policy: group commit on the
// store's default interval, so runs stay CPU-bound.
var storeOptions = store.Options{Fsync: store.FsyncInterval}

// system is one running federation, wired in one process as cmd/lqpd and
// cmd/polygend wire it: a wire server per local database dialled back as an
// LQP, every LQP behind a federation.Registry, one shared PQP, and the
// mediator behind a wire mediator server.
type system struct {
	data     *federationData
	servers  []*wire.Server
	addrs    map[string]string
	legs     []*wire.Client
	counting []*lqp.Counting
	registry *federation.Registry
	pqp      *pqp.PQP
	medSrv   *wire.Server
	medAddr  string

	store    *store.Store
	storeDir string

	// Traced systems only.
	tr       *tracer
	medBytes *byteCounter
	lqpBytes *byteCounter
}

// start serves data. With tr set every layer boundary is wrapped and
// traced; tmp is where a durable database keeps its directory.
func start(data *federationData, tr *tracer, tmp string) (s *system, err error) {
	s = &system{data: data, addrs: make(map[string]string), tr: tr}
	defer func() {
		if err != nil {
			s.close()
			s.removeStore()
			s = nil
		}
	}()
	if tr != nil {
		s.medBytes, s.lqpBytes = &byteCounter{}, &byteCounter{}
	}
	s.registry = federation.NewRegistry(federation.Config{})
	for _, db := range data.dbs {
		var served wire.LocalLQP = lqp.NewLocal(db)
		if db.Name() == data.durable {
			if s.storeDir, err = os.MkdirTemp(tmp, "store-"); err != nil {
				return s, err
			}
			if s.store, err = store.Open(s.storeDir, db.Name(), db, storeOptions); err != nil {
				return s, fmt.Errorf("opening store: %w", err)
			}
			served = store.NewLQP(s.store)
		}
		if tr != nil {
			served = &servedLQP{t: tr, inner: served}
		}
		srv := wire.NewServerFor(served)
		if tr != nil {
			srv.ConnHook = s.lqpBytes.hook
		}
		s.servers = append(s.servers, srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return s, err
		}
		s.addrs[db.Name()] = addr
		client, err := wire.Dial(addr)
		if err != nil {
			return s, err
		}
		s.legs = append(s.legs, client)
		var leg lqp.LQP = client
		if tr != nil {
			c := lqp.NewCounting(client)
			s.counting = append(s.counting, c)
			leg = &legLQP{t: tr, inner: c}
		}
		s.registry.Add(db.Name(), leg)
	}
	s.registry.Start()
	lqps := s.registry.LQPs()
	if tr != nil {
		for name, l := range lqps {
			lqps[name] = &fedLQP{t: tr, inner: l}
		}
	}
	s.pqp = pqp.New(data.schema, data.reg, data.resolver, lqps)
	if err := s.pqp.CollectStats(); err != nil {
		return s, fmt.Errorf("collecting statistics: %w", err)
	}
	var med wire.Mediator = mediator.New(s.pqp, mediator.Config{Federation: data.name})
	if tr != nil {
		med = &tracedMediator{Mediator: med, t: tr}
	}
	s.medSrv = wire.NewMediatorServer(med)
	if tr != nil {
		s.medSrv.ConnHook = s.medBytes.hook
	}
	if s.medAddr, err = s.medSrv.Listen("127.0.0.1:0"); err != nil {
		return s, err
	}
	return s, nil
}

// session is one client of the mediator: its own wire.Client and session.
type session struct {
	c  *wire.Client
	id string
}

func (s *system) dialSession() (*session, error) {
	c, err := wire.Dial(s.medAddr)
	if err != nil {
		return nil, err
	}
	info, err := c.OpenSession()
	if err != nil {
		c.Close()
		return nil, err
	}
	return &session{c: c, id: info.ID}, nil
}

// dialWriter connects a client straight to database db's server, for
// inserts; its connection is left out of the LQP byte count.
func (s *system) dialWriter(db string) (*wire.Client, error) {
	if s.lqpBytes != nil {
		s.lqpBytes.skip.Store(true)
	}
	return wire.DialPool(s.addrs[db], 1)
}

// close stops every server and client and closes the store. It returns
// the store's close error, if any.
func (s *system) close() error {
	if s.medSrv != nil {
		s.medSrv.Close()
	}
	if s.registry != nil {
		s.registry.Stop()
	}
	for _, c := range s.legs {
		c.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	var err error
	if s.store != nil {
		err = s.store.Close()
		s.store = nil
	}
	return err
}

// removeStore deletes the durable database's directory.
func (s *system) removeStore() {
	if s.storeDir != "" {
		os.RemoveAll(s.storeDir)
	}
}

// lqpCounts sums rows and cells moved by every leg (traced systems only).
func (s *system) lqpCounts() (rows, cells int64) {
	for _, c := range s.counting {
		rows += c.RowsTransferred()
		cells += c.CellsTransferred()
	}
	return rows, cells
}

// resetCounts zeroes the traced counters before a measured window.
func (s *system) resetCounts() {
	for _, c := range s.counting {
		c.Reset()
	}
	if s.medBytes != nil {
		s.medBytes.n.Store(0)
		s.lqpBytes.n.Store(0)
	}
}
