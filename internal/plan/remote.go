package plan

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/pattern"
	"repro/internal/rdf"
)

// RemoteScan is the federated leaf access path: one triple pattern answered
// by the SPARQL services of its candidate peers instead of a local index.
// The federation mediator injects Fetch (bound to its per-execution fetch
// cache and peer client) and the routing/batching parameters, so EXPLAIN
// output shows how the pattern will cross the network: how many sources are
// candidates, the bind-join probe batch size, and the per-peer in-flight
// window.
//
// With FetchStream set, opening the node returns a live iterator over the
// remote result stream: rows reach downstream joins as chunks arrive from
// the peers, and closing the iterator (cancellation, LIMIT) closes the
// remote streams so the peers stop producing. Otherwise Fetch materialises
// the pattern's merged remote extension up front and the rows stream from
// an in-memory buffer. Network errors have no Iterator
// channel — fetch implementations record them out of band (the mediator's
// fetcher keeps the first error and the fetch yields no further rows).
type RemoteScan struct {
	TP pattern.TriplePattern
	// Sources is the number of candidate peers the registry routes the
	// pattern to.
	Sources int
	// Batch, when > 0, is the bind-join probe batch size: how many bindings
	// one probe query ships (VALUES-style, as a UNION of filtered copies of
	// the pattern).
	Batch int
	// Window, when > 0, is the per-peer cap on concurrently outstanding
	// requests.
	Window int
	// Fetch retrieves the pattern's merged extension from the candidate
	// peers; nil yields no rows (an EXPLAIN-only plan). The context is the
	// one the node was opened under — sub-queries issued by the fetch
	// inherit the request's deadline and stop early on cancellation.
	Fetch func(ctx context.Context, tp pattern.TriplePattern) []pattern.Binding
	// FetchStream, when non-nil, is preferred over Fetch: it opens an
	// incremental iterator over the pattern's merged remote extension, so
	// downstream operators start on the first chunk instead of the last.
	FetchStream func(ctx context.Context, tp pattern.TriplePattern) Iterator
	// Degraded, when non-nil, reports the sources skipped so far under the
	// mediator's partial-answer degradation; a non-empty report renders as
	// a partial=[…] annotation, so EXPLAIN ANALYZE shows which leaves may
	// be missing contributions.
	Degraded func() []string
}

// Vars implements Node.
func (s *RemoteScan) Vars() []string { return s.TP.Vars() }

// Open implements Node.
func (s *RemoteScan) Open(ctx context.Context, _ rdf.Source) Iterator {
	if s.FetchStream != nil {
		return s.FetchStream(ctx, s.TP)
	}
	if s.Fetch == nil {
		return &sliceIter{}
	}
	return &sliceIter{rows: s.Fetch(ctx, s.TP)}
}

func (s *RemoteScan) format(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "RemoteScan[%s] sources=%d", s.TP, s.Sources)
	if s.FetchStream != nil {
		b.WriteString(" stream")
	}
	if s.Batch > 0 {
		fmt.Fprintf(b, " batch=%d", s.Batch)
	}
	if s.Window > 0 {
		fmt.Fprintf(b, " window=%d", s.Window)
	}
	if s.Degraded != nil {
		if skipped := s.Degraded(); len(skipped) > 0 {
			fmt.Fprintf(b, " partial=%v", skipped)
		}
	}
	b.WriteByte('\n')
}
