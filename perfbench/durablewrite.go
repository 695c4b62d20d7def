package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/rdf"
	"repro/internal/workload"
)

// opRecent is a cast lookup of a film the writer wrote during the run.
const opRecent uint8 = 8

// recentWindow is how many of the newest written films a recent read
// picks from.
const recentWindow = 32

// writtenFilm is batch k of the writer: one new film, its cast and their
// identity links, committed as one Graph.AddAll.
func writtenFilm(films, cast, k int) []rdf.Triple {
	id := films + k
	film := rdf.IRI(fmt.Sprintf("%sFilm%d", workload.NSDB1, id))
	ts := []rdf.Triple{{S: film, P: workload.SameAs, O: rdf.IRI(fmt.Sprintf("%sFilm%d_r", workload.NSDB2, id))}}
	for a := 0; a < cast; a++ {
		node := rdf.Blank(fmt.Sprintf("w%d_%d", id, a))
		actor := rdf.IRI(fmt.Sprintf("%sActor%d_%d", workload.NSDB1, id, a))
		ts = append(ts,
			rdf.Triple{S: film, P: workload.Starring, O: node},
			rdf.Triple{S: node, P: workload.Artist, O: actor},
			rdf.Triple{S: actor, P: workload.SameAs, O: rdf.IRI(fmt.Sprintf("%sActor%d_%d", workload.NSFoaf, id, a))},
		)
	}
	return ts
}

// castHash is the answer a cast lookup of written batch k must give once
// the batch is visible.
func castHash(films, cast, k int) uint64 {
	id := films + k
	rows := make([]pattern.Tuple, cast)
	for a := range rows {
		rows[a] = pattern.Tuple{rdf.IRI(fmt.Sprintf("%sActor%d_%d", workload.NSDB1, id, a))}
	}
	return rowsHash(rows)
}

// writer commits batches open loop: batch k is due at start + k/rate and
// is sent when due, however long earlier commits took, so a stall delays
// every later batch and shows in their latency.
type writer struct {
	g           *rdf.Graph
	films, cast int
	rate        float64
	tr          *tracer

	issued atomic.Int64 // batches sent so far

	// Per batch, filled by the writer goroutine, read after it stops.
	due, sent, acked []time.Time
	ok               []bool
	userBytes        atomic.Int64 // N-Triples size of the terms committed
}

func (w *writer) run(stop <-chan struct{}) {
	start := time.Now()
	interval := time.Duration(float64(time.Second) / w.rate)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			select {
			case <-stop:
				return
			case <-time.After(d):
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		ts := writtenFilm(w.films, w.cast, k)
		for _, t := range ts {
			w.userBytes.Add(int64(len(t.S.String()) + len(t.P.String()) + len(t.O.String())))
		}
		sent := time.Now()
		w.issued.Store(int64(k + 1))
		s := w.tr.open("rdf.commit", 0, 0)
		n := w.g.AddAll(ts)
		w.tr.end(s)
		w.due = append(w.due, due)
		w.sent = append(w.sent, sent)
		w.acked = append(w.acked, time.Now())
		w.ok = append(w.ok, n == len(ts))
	}
}

// walCounters reads the written peer's public WAL and checkpoint stats.
func walCounters(st *durable.Store, reg *obs.Registry, into map[string]float64) {
	ws := st.WALStats()
	into["wal_bytes"] = float64(ws.AppendedBytes)
	into["wal_syncs"] = float64(ws.Syncs)
	into["checkpoints"] = reg.Snapshot()[`checkpoint_writes_total{peer="source1"}`]
}

// settleCheckpoints waits, for at most 10 s, until the background
// checkpointer has taken the checkpoint a cold load owes: a fresh store
// logs the whole Turtle load, and the checkpoint follows within a poll.
// Heap and timing are measured after it, not across it.
func settleCheckpoints(reg *obs.Registry) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		settled := true
		for name, v := range reg.Snapshot() {
			if strings.HasPrefix(name, "checkpoint_pending_ops") && v >= checkpointEvery {
				settled = false
			}
		}
		if settled {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// recoverStores re-attaches every peer's data directory into fresh graphs,
// as a restart does, and returns the time it took and the recovered graph
// of the written peer.
func recoverStores(dataDir string, peers []string) (time.Duration, *rdf.Graph, error) {
	var total time.Duration
	var written *rdf.Graph
	for _, name := range peers {
		so, err := storeOptions(filepath.Join(dataDir, "peers", name))
		if err != nil {
			return 0, nil, err
		}
		g := rdf.NewGraph()
		start := time.Now()
		st, err := durable.Attach(g, so)
		if err != nil {
			return 0, nil, fmt.Errorf("re-attach %s: %w", name, err)
		}
		total += time.Since(start)
		if err := st.Close(); err != nil {
			return 0, nil, err
		}
		if name == "source1" {
			written = g
		}
	}
	return total, written, nil
}

// runDurableWrite is the durable-write workload: an open-loop writer
// commits new films into a durable peer while one closed-loop reader runs
// the peer-read mix against the same peer, the newest films included.
func runDurableWrite(cfg config) (*result, error) {
	r := newResult()
	dir, err := workDir(cfg.Work, fmt.Sprintf("durable-write-%d", cfg.Seed))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sysPath, err := genFilm(dir, cfg.Seed, cfg.Sizes)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	qc := installCache()
	dataRoot := filepath.Join(dir, "data")
	st, dataDir, err := setUpRepeated(cfg, r, sysPath, dataRoot, tr)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	for name, s := range st.srv.stores {
		s.RegisterMetrics(reg, name)
	}
	settleCheckpoints(reg)
	r.set("heap_mb", liveHeapMB())
	oracle, err := buildFilmOracle(st.srv.sys)
	if err != nil {
		st.srv.close()
		return nil, err
	}
	store := st.srv.stores["source1"]

	w := &writer{g: st.srv.sys.Peer("source1").Data(), films: cfg.Sizes.Films,
		cast: cfg.Sizes.WriteCast, rate: cfg.Sizes.WriteRate, tr: tr}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.run(stop)
	}()

	reads := newFilmReads(st.srv, tr)
	films := newKeys(clientSeed(cfg.Seed, 0), cfg.Sizes.Films)
	ages := newKeys(clientSeed(cfg.Seed, 0)+1, ageSpan)
	recent := rand.New(rand.NewSource(clientSeed(cfg.Seed, 0) + 2))
	l := newLoop(1, func(c, k int, req int64) (uint8, int32, uint64, error) {
		kind, key := opCast, films.next()
		switch {
		case isSelect(k):
			kind, key = opSelect, ageMin+ages.next()
		case k%4 == 0 && w.issued.Load() > 0:
			newest := int(w.issued.Load()) - 1
			kind, key = opRecent, newest-recent.Intn(min(recentWindow, newest+1))
		}
		var h uint64
		var err error
		if kind == opRecent {
			h, err = reads.read(req, opCast, cfg.Sizes.Films+key)
		} else {
			h, err = reads.read(req, kind, key)
		}
		return kind, int32(key), h, err
	})
	stats := func() map[string]float64 {
		m := readCounters(qc, st.srv)
		walCounters(store, reg, m)
		m["commits"] = float64(w.issued.Load())
		m["user_bytes"] = float64(w.userBytes.Load())
		return m
	}
	p := drive(cfg, l, tr, stats)
	close(stop)
	wg.Wait()
	measureStart := p.Untraced[0].Start // every run's measured time opens untraced
	peers := st.srv.sys.PeerNames()
	if err := st.srv.close(); err != nil {
		return nil, err
	}

	// Re-attach three times; the median is recover_s.
	var recoveries []float64
	var recovered *rdf.Graph
	for i := 0; i < 3; i++ {
		d, g, err := recoverStores(dataDir, peers)
		if err != nil {
			return nil, err
		}
		recoveries = append(recoveries, d.Seconds())
		recovered = g
	}
	r.set("recover_s", median(recoveries))

	full := func(k int) uint64 { return castHash(cfg.Sizes.Films, cfg.Sizes.WriteCast, k) }
	empty := rowsHash(nil)
	torn, stale := 0, 0
	checkSamples(r, p, func(s sample) bool {
		if s.Kind != opRecent {
			return s.Hash == oracle.expect(s.Kind, int(s.Key))
		}
		k := int(s.Key)
		switch {
		case s.Hash == full(k):
			return true
		case s.Hash != empty:
			torn++ // part of the batch
		case k < len(w.acked) && s.Start.Before(w.acked[k]):
			return true // none of it, and sent before the batch was acknowledged
		default:
			stale++ // none of it, though acknowledged before the read was sent
		}
		return false
	})
	// Every acknowledged batch must survive the restart.
	var lat, late durations
	lost := 0
	for k := range w.acked {
		r.Attempted++
		ts := writtenFilm(cfg.Sizes.Films, cfg.Sizes.WriteCast, k)
		present := true
		for _, t := range ts {
			present = present && recovered.Has(t)
		}
		if !w.ok[k] || !present {
			r.Failed++
			r.Wrong++
			lost++
		}
		if !w.due[k].Before(measureStart) {
			lat = append(lat, w.acked[k].Sub(w.due[k]))
			late = append(late, w.sent[k].Sub(w.due[k]))
		}
	}
	r.set("error_rate", ratio(float64(r.Failed), float64(r.Attempted)))
	r.set("write_p50_ms", lat.quantileMS(0.50))
	r.set("write_p99_ms", lat.quantileMS(0.99))
	r.set("harness.gen_late_ms_p99", late.quantileMS(0.99))
	r.linef("writes: %d batches of %d triples acknowledged, %d measured; torn reads %d, stale reads %d, batches lost after re-attach %d",
		len(w.acked), 1+3*cfg.Sizes.WriteCast, len(lat), torn, stale, lost)

	latencyMetrics(r, p)
	ss, _ := p.measured()
	cacheMetrics(r, p, float64(len(ss)))
	commits := p.delta("commits")
	r.set("durable.commits", commits)
	r.set("durable.syncs_per_commit", ratio(p.delta("wal_syncs"), commits))
	r.set("checkpoint.count", p.delta("checkpoints"))
	r.set("durable.user_bytes", p.delta("user_bytes"))
	r.set("durable.wal_bytes_per_user_byte", ratio(p.delta("wal_bytes"), p.delta("user_bytes")))
	r.linef("workload durable-write: %d films x %d actors; writer open loop at %.0f commits/s (%d triples each) into durable source1, fsync %s, checkpoint every %d ops; 1 reader closed loop",
		cfg.Sizes.Films, cfg.Sizes.Actors, cfg.Sizes.WriteRate, 1+3*cfg.Sizes.WriteCast, fsyncPolicy, checkpointEvery)
	if cfg.Trace {
		agg := aggregate(tr.snapshot())
		peerSpanMetrics(r, agg)
		r.set("rdf.commit_us", agg["rdf.commit"].meanUS(false))
		text := func(s sample) string {
			if s.Kind == opRecent {
				return castQuery(cfg.Sizes.Films + int(s.Key))
			}
			return filmText(s)
		}
		r.set("sparql.parse_us", parseMetric(distinctTexts(ss, text, 1000)))
		r.Lines = append(r.Lines, spanSummary(agg)...)
		if err := tr.dump(spansFile(cfg, "durable-write")); err != nil {
			return nil, err
		}
	}
	return r, nil
}
