package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/federation"
	"repro/internal/peer"
	"repro/internal/sparql"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around a call into the program. Spans of one request share Req; Parent is
// the span that caused this one (0 for a request's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer, or one
// that is switched off, records nothing, so untraced phases pay only a
// pointer test.
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active reports whether spans are being recorded.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// now is the time since the tracer started, in nanoseconds.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open allocates a span and stamps its start; close it with end.
func (t *tracer) open(name string, req, parent int64) *span {
	if !t.active() {
		return nil
	}
	return &span{ID: t.nextID.Add(1), Parent: parent, Req: req, Name: name, Start: t.now()}
}

// end stamps s's end and keeps it.
func (t *tracer) end(s *span) {
	if s == nil {
		return
	}
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// dump writes every span as one JSON line.
func (t *tracer) dump(path string) error {
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

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover. Children are clipped to the parent's
// interval and their union is taken, so children that overlap — the
// mediator's parallel sub-queries — count once.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	for i, iv := range clipped {
		if i == 0 || iv[0] > curB {
			total += curB - curA
			curA, curB = iv[0], iv[1]
			continue
		}
		curB = max(curB, iv[1])
	}
	return total + curB - curA
}

// layerTimes aggregates spans by name: call count, total and self time.
type layerTimes struct {
	Count       int64
	Total, Self int64 // nanoseconds
	Bytes       int64
}

func aggregate(spans []span) map[string]*layerTimes {
	self := selfTimes(spans)
	out := make(map[string]*layerTimes)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.Name] = lt
		}
		lt.Count++
		lt.Total += s.End - s.Start
		lt.Self += self[s.ID]
		lt.Bytes += s.Bytes
	}
	return out
}

// meanUS is the mean of total (or self) time per span of a layer, in µs.
func (lt *layerTimes) meanUS(self bool) float64 {
	if lt == nil || lt.Count == 0 {
		return 0
	}
	v := lt.Total
	if self {
		v = lt.Self
	}
	return float64(v) / float64(lt.Count) / 1e3
}

// Span context crossing into the program and over HTTP.

type spanKey struct{}

// spanRef names the span a call into the program runs under.
type spanRef struct {
	req, id int64
	// done, when set, closes the span once the response body is consumed
	// (streamed sub-queries outlive the call that opened them).
	done func(bytes int64)
}

func withSpan(ctx context.Context, ref *spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) *spanRef {
	ref, _ := ctx.Value(spanKey{}).(*spanRef)
	return ref
}

const (
	hdrReq    = "X-Bench-Req"
	hdrParent = "X-Bench-Parent"
)

// traceTransport forwards the caller's span over HTTP as two headers, so
// the peer's handler span links to it, and counts the response bytes.
type traceTransport struct {
	base http.RoundTripper
}

func (t traceTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref := spanFrom(r.Context())
	if ref == nil {
		return t.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(hdrReq, strconv.FormatInt(ref.req, 10))
	r.Header.Set(hdrParent, strconv.FormatInt(ref.id, 10))
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{rc: resp.Body, done: ref.done}
	return resp, nil
}

// countingBody counts the bytes read and reports them once, at EOF or
// Close, whichever comes first.
type countingBody struct {
	rc   io.ReadCloser
	n    int64
	once sync.Once
	done func(bytes int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *countingBody) Close() error {
	err := b.rc.Close()
	b.finish()
	return err
}

func (b *countingBody) finish() {
	b.once.Do(func() {
		if b.done != nil {
			b.done(b.n)
		}
	})
}

// traceHandler records a peer.handler span around a peer's SPARQL service,
// linked to the caller's span through the headers traceTransport sets.
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		s := tr.open("peer.handler", req, parent)
		h.ServeHTTP(w, r)
		tr.end(s)
	})
}

// wireClient wraps the mediator's peer client. It keeps every optional
// interface of the wrapped client — ContextClient, StreamClient and
// BatchClient — because the engine picks its code path by them. Each
// wrapper serves one benchmark client, whose closed loop has at most one
// request in flight, so calls without a context (batches) still attribute
// to the right request through cur.
type wireClient struct {
	inner *peer.HTTPClient
	tr    *tracer
	cur   atomic.Pointer[spanRef] // the federation.answer span in flight

	calls       atomic.Int64
	firstFrame  atomic.Int64 // ns, summed over streams opened while tracing
	firstFrames atomic.Int64
}

var (
	_ federation.ContextClient = (*wireClient)(nil)
	_ federation.StreamClient  = (*wireClient)(nil)
	_ federation.BatchClient   = (*wireClient)(nil)
)

func (c *wireClient) parent(ctx context.Context) (req, id int64) {
	ref := spanFrom(ctx)
	if ref == nil {
		ref = c.cur.Load()
	}
	if ref == nil {
		return 0, 0
	}
	return ref.req, ref.id
}

func (c *wireClient) Query(addr, text string) (*sparql.Result, error) {
	return c.QueryContext(context.Background(), addr, text)
}

func (c *wireClient) QueryContext(ctx context.Context, addr, text string) (*sparql.Result, error) {
	c.calls.Add(1)
	req, parent := c.parent(ctx)
	s := c.tr.open("federation.wire", req, parent)
	if s != nil {
		ctx = withSpan(ctx, &spanRef{req: req, id: s.ID, done: func(n int64) { s.Bytes = n }})
	}
	res, err := c.inner.QueryContext(ctx, addr, text)
	c.tr.end(s)
	return res, err
}

func (c *wireClient) QueryBatch(addr string, texts []string) ([]*sparql.Result, error) {
	c.calls.Add(1)
	req, parent := c.parent(context.Background())
	s := c.tr.open("federation.wire", req, parent)
	rs, err := c.inner.QueryBatch(addr, texts)
	c.tr.end(s)
	return rs, err
}

// QueryStream opens the stream inside a wire span that stays open until
// the engine has drained (or closed) the response body.
func (c *wireClient) QueryStream(ctx context.Context, addr, text string) (*peer.ResultStream, error) {
	c.calls.Add(1)
	req, parent := c.parent(ctx)
	s := c.tr.open("federation.wire", req, parent)
	if s == nil {
		return c.inner.QueryStream(ctx, addr, text)
	}
	var once sync.Once
	finish := func(n int64) { once.Do(func() { s.Bytes = n; c.tr.end(s) }) }
	start := time.Now()
	rs, err := c.inner.QueryStream(withSpan(ctx, &spanRef{req: req, id: s.ID, done: finish}), addr, text)
	c.firstFrame.Add(int64(time.Since(start)))
	c.firstFrames.Add(1)
	if err != nil {
		finish(0)
	}
	return rs, err
}

// spanSummary renders the per-name breakdown of a traced run as report
// lines: calls, mean total and mean self time.
func spanSummary(agg map[string]*layerTimes) []string {
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, 0, len(names))
	for _, n := range names {
		lt := agg[n]
		out = append(out, fmt.Sprintf("span %-18s calls=%-8d mean_us=%-10.1f self_us=%.1f",
			n, lt.Count, lt.meanUS(false), lt.meanUS(true)))
	}
	return out
}
