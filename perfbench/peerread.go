package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/qcache"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// Operation kinds of the film read mix.
const (
	opCast   uint8 = iota // cast lookup of one film at source1: 2 patterns, Actors rows
	opSelect              // age-equality selection at source3: ~1.1k rows
)

// Ages are drawn from [ageMin, ageMin+ageSpan) by the film generator.
const (
	ageMin  = 20
	ageSpan = 60
)

func castQuery(film int) string {
	return fmt.Sprintf("SELECT ?a WHERE { <%sFilm%d> <%sstarring> ?z . ?z <%sartist> ?a }",
		workload.NSDB1, film, workload.NSEx, workload.NSEx)
}

func ageQuery(age int) string {
	return fmt.Sprintf(`SELECT ?p WHERE { ?p <%sage> "%d" }`, workload.NSEx, age)
}

// filmReads issues the read mix over HTTP SPARQL: nine cast lookups to one
// age selection, in a fixed interleave so that every run does the same
// share of each.
type filmReads struct {
	client  *peer.HTTPClient
	tr      *tracer
	castURL string
	ageURL  string
}

func newFilmReads(srv *server, tr *tracer) *filmReads {
	return &filmReads{
		client:  httpClient(tr),
		tr:      tr,
		castURL: srv.endpoint("source1"),
		ageURL:  srv.endpoint("source3"),
	}
}

func isSelect(k int) bool { return k%10 == 9 }

// read sends one query as request req and hashes the answer rows.
func (f *filmReads) read(req int64, kind uint8, key int) (uint64, error) {
	url, text := f.castURL, castQuery(key)
	if kind == opSelect {
		url, text = f.ageURL, ageQuery(key)
	}
	ctx := context.Background()
	s := f.tr.open("peer.client", req, 0)
	if s != nil {
		ctx = withSpan(ctx, &spanRef{req: req, id: s.ID, done: func(n int64) { s.Bytes = n }})
	}
	res, err := f.client.QueryContext(ctx, url, text)
	f.tr.end(s)
	if err != nil {
		return 0, err
	}
	return rowsHash(res.Rows), nil
}

// filmOracle holds the expected answer hash of every cast lookup and
// selection, computed by pattern.EvalNaive — the executable form of the
// paper's Definition 1 — over snapshots of the peers, once, before the
// run. A cast lookup's answer is the naive evaluation of the unbound
// pattern restricted to its film.
type filmOracle struct {
	cast map[int]uint64
	ages map[int]uint64
}

func buildFilmOracle(sys *core.System) (*filmOracle, error) {
	snap1 := sys.Peer("source1").Data().Snapshot()
	casts := make(map[int][]pattern.Tuple)
	for _, mu := range pattern.EvalNaive(snap1, pattern.GraphPattern{
		pattern.TP(pattern.V("f"), pattern.C(workload.Starring), pattern.V("z")),
		pattern.TP(pattern.V("z"), pattern.C(workload.Artist), pattern.V("a")),
	}) {
		id, err := strconv.Atoi(strings.TrimPrefix(mu["f"].Value(), workload.NSDB1+"Film"))
		if err != nil {
			return nil, fmt.Errorf("oracle: film %s: %w", mu["f"], err)
		}
		casts[id] = append(casts[id], pattern.Tuple{mu["a"]})
	}
	snap3 := sys.Peer("source3").Data().Snapshot()
	ages := make(map[int][]pattern.Tuple)
	for _, mu := range pattern.EvalNaive(snap3, pattern.GraphPattern{
		pattern.TP(pattern.V("p"), pattern.C(workload.Age), pattern.V("v")),
	}) {
		v, err := strconv.Atoi(mu["v"].Value())
		if err != nil {
			return nil, fmt.Errorf("oracle: age %s: %w", mu["v"], err)
		}
		ages[v] = append(ages[v], pattern.Tuple{mu["p"]})
	}
	o := &filmOracle{cast: make(map[int]uint64), ages: make(map[int]uint64)}
	for id, rows := range casts {
		o.cast[id] = rowsHash(rows)
	}
	for v, rows := range ages {
		o.ages[v] = rowsHash(rows)
	}
	return o, nil
}

// expect is the oracle's hash for an operation; keys with no data answer
// the empty set.
func (o *filmOracle) expect(kind uint8, key int) uint64 {
	m := o.cast
	if kind == opSelect {
		m = o.ages
	}
	if h, ok := m[key]; ok {
		return h
	}
	return rowsHash(nil)
}

// readCounters snapshots the public counters of the read path.
func readCounters(qc *qcache.Cache, srv *server) map[string]float64 {
	st := qc.Stats()
	return map[string]float64{
		"hits": float64(st.Hits), "misses": float64(st.Misses),
		"stale": float64(st.StaleDrops), "rejects": float64(st.Rejections), "evictions": float64(st.Evictions),
		"scans": float64(sparql.PatternScans()), "rows": float64(srv.rowsProduced()),
	}
}

// cacheMetrics reports the answer cache's counters over the measured
// phase; the hit ratio's base is the lookups counted.
func cacheMetrics(r *result, p *phases, ops float64) {
	lookups := p.delta("hits") + p.delta("misses")
	r.set("qcache.hit_ratio", ratio(p.delta("hits"), lookups))
	r.set("qcache.lookups", lookups)
	r.set("qcache.stale_drops", p.delta("stale"))
	r.set("qcache.rejections", p.delta("rejects"))
	r.set("qcache.evictions", p.delta("evictions"))
	r.set("sparql.pattern_scans_per_op", ratio(p.delta("scans"), ops))
	r.set("peer.rows_per_op", ratio(p.delta("rows"), ops))
	r.linef("qcache: %.0f lookups, hit ratio %.4f; %.0f pattern scans and %.0f peer rows over %.0f ops",
		lookups, r.Metrics["qcache.hit_ratio"], p.delta("scans"), p.delta("rows"), ops)
}

// peerSpanMetrics reports the peer layer from the traced phase. The
// client side of a peer call is the benchmark's own read, or the
// mediator's wire call in the federated workload; its self time is the
// HTTP and JSON cost around the peer's handler.
func peerSpanMetrics(r *result, agg map[string]*layerTimes) {
	cl := agg["peer.client"]
	if cl == nil {
		cl = agg["federation.wire"]
	}
	r.set("peer.handler_us", agg["peer.handler"].meanUS(false))
	r.set("peer.http_us", cl.meanUS(true))
	if cl != nil && cl.Count > 0 {
		r.set("peer.response_bytes", float64(cl.Bytes)/float64(cl.Count))
	}
}

// parseMetric times sparql.Parse alone on the given texts: the median
// over rounds of the mean time per parse, in µs.
func parseMetric(texts []string) float64 {
	if len(texts) == 0 {
		return 0
	}
	var rounds []float64
	for round := 0; round < 5; round++ {
		start := time.Now()
		for _, t := range texts {
			if _, err := sparql.Parse(t, nil); err != nil {
				return 0
			}
		}
		rounds = append(rounds, float64(time.Since(start))/float64(len(texts))/1e3)
	}
	return median(rounds)
}

// distinctTexts returns up to n distinct query texts of the run, in order
// of first use.
func distinctTexts(ss []sample, text func(s sample) string, n int) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range ss {
		t := text(s)
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

func filmText(s sample) string {
	if s.Kind == opSelect {
		return ageQuery(int(s.Key))
	}
	return castQuery(int(s.Key))
}

// runPeerRead is the peer-read workload: closed-loop clients read one
// peer's SPARQL endpoint per request with a working set that fits the
// answer cache; nothing is written.
func runPeerRead(cfg config) (*result, error) {
	r := newResult()
	dir, err := workDir(cfg.Work, fmt.Sprintf("peer-read-%d", cfg.Seed))
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
	st, _, err := setUpRepeated(cfg, r, sysPath, "", tr)
	if err != nil {
		return nil, err
	}
	r.set("heap_mb", liveHeapMB())
	oracle, err := buildFilmOracle(st.srv.sys)
	if err != nil {
		st.srv.close()
		return nil, err
	}

	reads := newFilmReads(st.srv, tr)
	films := make([]*keys, cfg.Clients)
	ages := make([]*keys, cfg.Clients)
	for c := range films {
		films[c] = newKeys(clientSeed(cfg.Seed, c), cfg.Sizes.Films)
		ages[c] = newKeys(clientSeed(cfg.Seed, c)+1, ageSpan)
	}
	l := newLoop(cfg.Clients, func(c, k int, req int64) (uint8, int32, uint64, error) {
		kind, key := opCast, films[c].next()
		if isSelect(k) {
			kind, key = opSelect, ageMin+ages[c].next()
		}
		h, err := reads.read(req, kind, key)
		return kind, int32(key), h, err
	})
	p := drive(cfg, l, tr, func() map[string]float64 { return readCounters(qc, st.srv) })
	if err := st.srv.close(); err != nil {
		return nil, err
	}

	checkSamples(r, p, func(s sample) bool { return s.Hash == oracle.expect(s.Kind, int(s.Key)) })
	latencyMetrics(r, p)
	ss, _ := p.measured()
	cacheMetrics(r, p, float64(len(ss)))
	r.linef("workload peer-read: %d films x %d actors, %d clients closed loop, 9 cast lookups : 1 selection, Zipf s=%.1f",
		cfg.Sizes.Films, cfg.Sizes.Actors, cfg.Clients, zipfS)
	if cfg.Trace {
		agg := aggregate(tr.snapshot())
		peerSpanMetrics(r, agg)
		r.set("sparql.parse_us", parseMetric(distinctTexts(ss, filmText, 1000)))
		r.Lines = append(r.Lines, spanSummary(agg)...)
		if err := tr.dump(spansFile(cfg, "peer-read")); err != nil {
			return nil, err
		}
	}
	return r, nil
}
