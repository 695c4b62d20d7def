package main

// This file is the one place that wires the program under test. It uses
// only the constructors cmd/rpsd uses, with rpsd's default flags:
//
//	-result-cache=true -result-cache-mb 64
//	-fed-join hash -fed-parallel=true -fed-retries 3
//	-fsync always -checkpoint-every 10000 (with -data-dir)
//
// The answer cache is installed through the process-global Set* hooks of
// internal/plan and internal/sparql, exactly as rpsd does; when those hooks
// are replaced, installCache is the only function to change.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/federation"
	"repro/internal/mapfile"
	"repro/internal/peer"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/sparql"
	"repro/internal/wal"
)

const (
	cacheBytes      = 64 << 20 // -result-cache-mb 64
	negAskEntries   = 4096     // rpsd's negative-ASK cache size
	fedAttempts     = 3        // -fed-retries 3
	fsyncPolicy     = "always" // -fsync always
	checkpointEvery = 10000    // -checkpoint-every 10000
)

// installCache creates the answer cache and hooks it into the plan and
// sparql layers. The federation layer receives it through fedOptions.
func installCache() *qcache.Cache {
	qc := qcache.New(cacheBytes)
	plan.SetAnswerCache(qc.Layer("plan"))
	plan.SetNegativeAskCache(qcache.NewNegCache(negAskEntries))
	sparql.SetAnswerCache(qc.Layer("sparql"))
	return qc
}

// fedOptions is rpsd's default mediator configuration.
func fedOptions(qc *qcache.Cache) federation.Options {
	return federation.Options{
		Join:        federation.HashJoin,
		Retry:       federation.RetryPolicy{MaxAttempts: fedAttempts},
		AnswerCache: qc,
	}
}

// storeOptions is rpsd's durable configuration for one peer directory.
func storeOptions(dir string) (durable.Options, error) {
	policy, err := wal.ParsePolicy(fsyncPolicy)
	if err != nil {
		return durable.Options{}, err
	}
	return durable.Options{Dir: dir, Policy: policy, CheckpointEvery: checkpointEvery}, nil
}

// loadSystem reads a system file. With a data directory every peer's store
// is attached to a WAL and checkpoints under <dataDir>/peers/<name> before
// its data loads, as rpsd -data-dir does; the stores must be closed.
func loadSystem(sysPath, dataDir string) (*core.System, map[string]*durable.Store, error) {
	if dataDir == "" {
		sys, _, err := mapfile.Load(sysPath)
		return sys, nil, err
	}
	stores := make(map[string]*durable.Store)
	opts := mapfile.Options{PreparePeer: func(p *core.Peer) (bool, error) {
		so, err := storeOptions(filepath.Join(dataDir, "peers", p.Name()))
		if err != nil {
			return false, err
		}
		st, err := durable.Attach(p.Data(), so)
		if err != nil {
			return false, err
		}
		stores[p.Name()] = st
		return st.Recovery().Recovered(), nil
	}}
	sys, _, err := mapfile.LoadWith(sysPath, opts)
	if err != nil {
		closeStores(stores)
		return nil, nil, err
	}
	return sys, stores, nil
}

func closeStores(stores map[string]*durable.Store) error {
	var errs []error
	for _, st := range stores {
		errs = append(errs, st.Close())
	}
	return errors.Join(errs...)
}

// server serves every peer of a system as a SPARQL endpoint on loopback
// HTTP, at <base>/peer/<name>.
type server struct {
	sys      *core.System
	stores   map[string]*durable.Store
	base     string
	services map[string]*peer.HTTPService
	srv      *http.Server
	errc     chan error
}

// serve mounts the peers on a fresh listener. tr, when non-nil, wraps each
// service in a peer.handler span.
func serve(sys *core.System, stores map[string]*durable.Store, tr *tracer) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		sys: sys, stores: stores,
		base:     "http://" + ln.Addr().String(),
		services: make(map[string]*peer.HTTPService),
		errc:     make(chan error, 1),
	}
	mux := http.NewServeMux()
	for _, p := range sys.Peers() {
		svc := peer.NewHTTPService(p)
		s.services[p.Name()] = svc
		var h http.Handler = svc
		if tr != nil {
			h = traceHandler(tr, h)
		}
		mux.Handle("/peer/"+p.Name(), h)
	}
	s.srv = &http.Server{Handler: mux}
	go func() { s.errc <- s.srv.Serve(ln) }()
	return s, nil
}

// endpoint is the URL of a peer's SPARQL service.
func (s *server) endpoint(name string) string { return s.base + "/peer/" + name }

// rowsProduced sums the solution rows every peer service has produced.
func (s *server) rowsProduced() int64 {
	var n int64
	for _, svc := range s.services {
		n += svc.RowsProduced()
	}
	return n
}

// registry routes the mediator's sub-queries to the HTTP endpoints.
func (s *server) registry() *peer.Registry {
	reg := peer.NewRegistry()
	for _, p := range s.sys.Peers() {
		reg.Add(peer.Entry{Name: p.Name(), Addr: s.endpoint(p.Name()), Schema: p.Schema()})
	}
	return reg
}

// close stops the listener, waits for the serve loop and closes the
// stores (each writes its final checkpoint).
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.errc; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	if cerr := closeStores(s.stores); cerr != nil {
		err = errors.Join(err, fmt.Errorf("closing stores: %w", cerr))
	}
	return err
}

// httpClient is the peer client every benchmark client shares. The idle
// pool holds a connection for each sub-query the mediator can have in
// flight, so loopback connections are reused instead of churned.
func httpClient(tr *tracer) *peer.HTTPClient {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 256
	var rt http.RoundTripper = t
	if tr != nil {
		rt = traceTransport{base: t}
	}
	return &peer.HTTPClient{Client: &http.Client{Transport: rt}}
}

// setup is one timed set-up: from the generated files on disk to a
// serving system.
type setup struct {
	srv   *server
	load  time.Duration // mapfile load, with the stores' attach when durable
	total time.Duration // load plus serving
}

func setUp(sysPath, dataDir string, tr *tracer) (*setup, error) {
	start := time.Now()
	sys, stores, err := loadSystem(sysPath, dataDir)
	if err != nil {
		return nil, err
	}
	load := time.Since(start)
	srv, err := serve(sys, stores, tr)
	if err != nil {
		closeStores(stores)
		return nil, err
	}
	return &setup{srv: srv, load: load, total: time.Since(start)}, nil
}
