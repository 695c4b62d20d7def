package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/qcache"
	"repro/internal/rewrite"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// Operation kinds of the federated mix.
const (
	opHop1 uint8 = iota + 2 // bound entity, one core edge
	opHop2                  // bound entity, a path of two core edges
)

// fedKey packs a query's peer and entity into a sample key.
func fedKey(peerIdx, entity int) int32 { return int32(entity*16 + peerIdx) }

func unpackFedKey(key int32) (peerIdx, entity int) { return int(key % 16), int(key / 16) }

func fedQuery(kind uint8, key int32) string {
	i, e := unpackFedKey(key)
	ent, core := workload.LODEntity(i, e).Value(), workload.LODPredicate(i, "core").Value()
	if kind == opHop1 {
		return fmt.Sprintf("SELECT ?y WHERE { <%s> <%s> ?y }", ent, core)
	}
	return fmt.Sprintf("SELECT ?y WHERE { <%s> <%s> ?m . ?m <%s> ?y }", ent, core, core)
}

func fedText(s sample) string { return fedQuery(s.Kind, s.Key) }

func isHop2(k int) bool { return k%5 == 4 }

// mediator is one benchmark client's path through the mediator: SPARQL
// text → parse → AnswerCtx → wire to the peers → merge → encode. Each
// client has its own engine over the shared system, registry and answer
// cache, so that calls the program makes without a context (batched
// sub-queries) are still attributed to the client's one request in flight.
type mediator struct {
	eng  *federation.Engine
	wire *wireClient // nil when untraced
	tr   *tracer

	mu        sync.Mutex
	answers   int64
	disjuncts int64
	fetched   int64
	rows      int64
}

func newMediator(st *server, qc *qcache.Cache, hc *peer.HTTPClient, tr *tracer) *mediator {
	m := &mediator{tr: tr}
	var client federation.Client = hc
	if tr != nil {
		m.wire = &wireClient{inner: hc, tr: tr}
		client = m.wire
	}
	m.eng = federation.New(st.sys, st.registry(), client, fedOptions(qc))
	return m
}

// answer runs one federated request and hashes its answer rows. A
// truncated rewriting is an error: its answers may be incomplete.
func (m *mediator) answer(req int64, text string) (uint64, error) {
	ctx := context.Background()
	root := m.tr.open("request", req, 0)
	var rootID int64
	if root != nil {
		rootID = root.ID
	}
	ps := m.tr.open("sparql.parse", req, rootID)
	sq, err := sparql.Parse(text, nil)
	if err != nil {
		return 0, err
	}
	q, err := sq.ToPatternQuery()
	m.tr.end(ps)
	if err != nil {
		return 0, err
	}
	as := m.tr.open("federation.answer", req, rootID)
	if as != nil {
		ref := &spanRef{req: req, id: as.ID}
		ctx = withSpan(ctx, ref)
		m.wire.cur.Store(ref)
	}
	answers, met, err := m.eng.AnswerCtx(ctx, q)
	m.tr.end(as)
	if m.wire != nil {
		m.wire.cur.Store(nil)
	}
	if err != nil {
		return 0, err
	}
	es := m.tr.open("federation.encode", req, rootID)
	res := &sparql.Result{Form: sparql.FormSelect, Vars: q.Free}
	for _, t := range answers.Sorted() {
		res.Rows = append(res.Rows, t)
	}
	_, err = peer.EncodeResult(res)
	m.tr.end(es)
	m.tr.end(root)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	m.answers++
	m.disjuncts += int64(met.Disjuncts)
	m.fetched += int64(met.RowsFetched)
	m.rows += int64(len(res.Rows))
	m.mu.Unlock()
	if met.RewriteTruncated {
		return 0, fmt.Errorf("rewriting truncated at %d disjuncts", met.Disjuncts)
	}
	return rowsHash(res.Rows), nil
}

// counters snapshots the mediator's per-answer totals.
func (m *mediator) counters(into map[string]float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	into["answers"] += float64(m.answers)
	into["disjuncts"] += float64(m.disjuncts)
	into["fetched"] += float64(m.fetched)
	into["answer_rows"] += float64(m.rows)
	if m.wire != nil {
		into["wire_calls"] += float64(m.wire.calls.Load())
		into["first_frame_ns"] += float64(m.wire.firstFrame.Load())
		into["first_frames"] += float64(m.wire.firstFrames.Load())
	}
}

// chaseOracle answers every query from the chase's universal solution,
// computed once before the run.
type chaseOracle struct {
	u    *chase.Universal
	mu   sync.Mutex
	memo map[string]uint64
}

func (o *chaseOracle) expect(text string) (uint64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if h, ok := o.memo[text]; ok {
		return h, nil
	}
	sq, err := sparql.Parse(text, nil)
	if err != nil {
		return 0, err
	}
	q, err := sq.ToPatternQuery()
	if err != nil {
		return 0, err
	}
	h := rowsHash(o.u.CertainAnswers(q).Sorted())
	o.memo[text] = h
	return h, nil
}

// rewriteMetric times rewrite.Rewrite alone on the given texts: the median
// over rounds of the mean time per rewriting, in µs.
func rewriteMetric(sys *core.System, texts []string) float64 {
	qs := make([]pattern.Query, 0, len(texts))
	for _, t := range texts {
		sq, err := sparql.Parse(t, nil)
		if err != nil {
			return 0
		}
		q, err := sq.ToPatternQuery()
		if err != nil {
			return 0
		}
		qs = append(qs, q)
	}
	if len(qs) == 0 {
		return 0
	}
	var rounds []float64
	for round := 0; round < 5; round++ {
		start := time.Now()
		for _, q := range qs {
			if _, err := rewrite.Rewrite(q, sys, rewrite.Options{}); err != nil {
				return 0
			}
		}
		rounds = append(rounds, float64(time.Since(start))/float64(len(qs))/1e3)
	}
	return median(rounds)
}

// runFederated is the federated workload: closed-loop clients pose
// certain-answer conjunctive queries to the mediator, which rewrites them
// and federates sub-queries over loopback HTTP to every peer of an LOD
// cycle.
func runFederated(cfg config) (*result, error) {
	r := newResult()
	dir, err := workDir(cfg.Work, fmt.Sprintf("federated-%d", cfg.Seed))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sysPath, err := genLOD(dir, cfg.Seed, cfg.Sizes)
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
	hc := httpClient(tr)
	meds := make([]*mediator, cfg.Clients)
	for c := range meds {
		meds[c] = newMediator(st.srv, qc, hc, tr)
	}
	r.set("heap_mb", liveHeapMB())

	u, err := chase.Run(st.srv.sys, chase.Options{})
	if err != nil {
		st.srv.close()
		return nil, err
	}
	oracle := &chaseOracle{u: u, memo: make(map[string]uint64)}

	// 1-hop entities follow the Zipf, so lookups repeat. 2-hop entities
	// are uniform: a 2-hop's cost grows with its entity's out-degree, and
	// under the Zipf a few hot entities would set the whole class's cost
	// differently for every seed.
	ents := make([]*keys, cfg.Clients)
	paths := make([]*rand.Rand, cfg.Clients)
	for c := range ents {
		ents[c] = newKeys(clientSeed(cfg.Seed, c), cfg.Sizes.Entities*cfg.Sizes.Peers)
		paths[c] = rand.New(rand.NewSource(clientSeed(cfg.Seed, c) + 1))
	}
	l := newLoop(cfg.Clients, func(c, k int, req int64) (uint8, int32, uint64, error) {
		kind, n := opHop1, 0
		if isHop2(k) {
			kind, n = opHop2, paths[c].Intn(cfg.Sizes.Entities*cfg.Sizes.Peers)
		} else {
			n = ents[c].next()
		}
		key := fedKey(n%cfg.Sizes.Peers, n/cfg.Sizes.Peers)
		h, err := meds[c].answer(req, fedQuery(kind, key))
		return kind, key, h, err
	})
	stats := func() map[string]float64 {
		m := readCounters(qc, st.srv)
		for _, med := range meds {
			med.counters(m)
		}
		return m
	}
	p := drive(cfg, l, tr, stats)
	if err := st.srv.close(); err != nil {
		return nil, err
	}

	checkSamples(r, p, func(s sample) bool {
		h, err := oracle.expect(fedText(s))
		return err == nil && h == s.Hash
	})
	latencyMetrics(r, p)
	ss, _ := p.measured()
	cacheMetrics(r, p, float64(len(ss)))
	answers := p.delta("answers")
	r.set("rewrite.disjuncts", ratio(p.delta("disjuncts"), answers))
	r.set("federation.rows_fetched_per_answer", ratio(p.delta("fetched"), answers))
	r.set("federation.answer_rows", ratio(p.delta("answer_rows"), answers))
	r.linef("federation: %.0f answers; per answer %.1f disjuncts, %.1f rows fetched for %.1f answer rows (waste ratio %.2f)",
		answers, r.Metrics["rewrite.disjuncts"], r.Metrics["federation.rows_fetched_per_answer"],
		r.Metrics["federation.answer_rows"], ratio(p.delta("fetched"), p.delta("answer_rows")))
	r.linef("workload federated: %d peers in a rename cycle, %d facts and %d entities per peer, universal solution %d triples, %d clients closed loop, 4 one-hop : 1 two-hop, Zipf s=%.1f",
		cfg.Sizes.Peers, cfg.Sizes.Facts, cfg.Sizes.Entities, u.Graph.Len(), cfg.Clients, zipfS)
	if cfg.Trace {
		agg := aggregate(tr.snapshot())
		peerSpanMetrics(r, agg)
		r.set("federation.answer_us", agg["federation.answer"].meanUS(false))
		r.set("federation.mediator_self_us", agg["federation.answer"].meanUS(true))
		r.set("federation.wire_us", agg["federation.wire"].meanUS(false))
		r.set("federation.wire_calls", ratio(p.delta("wire_calls"), answers))
		r.set("federation.first_chunk_us", ratio(p.delta("first_frame_ns"), p.delta("first_frames"))/1e3)
		texts := distinctTexts(ss, fedText, 1000)
		r.set("sparql.parse_us", parseMetric(texts))
		r.set("rewrite.us", rewriteMetric(st.srv.sys, texts))
		r.Lines = append(r.Lines, spanSummary(agg)...)
		if err := tr.dump(spansFile(cfg, "federated")); err != nil {
			return nil, err
		}
	}
	return r, nil
}
