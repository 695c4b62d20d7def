package sparql

import (
	"context"

	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/rdf"
)

// RowStream is a pull iterator over a query's solutions, the evaluator
// behind the peer package's streaming wire protocol: rows are produced on
// demand, so a consumer that stops early (an ASK probe satisfied by the
// first row, a LIMIT reached, a canceled federated query) stops the
// underlying scan instead of draining it.
type RowStream struct {
	// Form echoes the query form.
	Form Form
	// Vars is the projection, in order (SELECT only).
	Vars []string
	// True is the ASK verdict (ASK only; valid immediately — ASK evaluates
	// to the first row and stops).
	True bool

	it       plan.Iterator // nil once exhausted, closed or at the LIMIT
	seen     map[string]struct{}
	limit    int
	emitted  int
	produced int64
}

// Next returns the next projected row. ok is false once the stream is
// exhausted (or was closed, or the LIMIT was reached).
func (s *RowStream) Next() (pattern.Tuple, bool) {
	for s.it != nil {
		mu, ok := s.it.Next()
		if !ok {
			s.Close()
			return nil, false
		}
		s.produced++
		row := make(pattern.Tuple, len(s.Vars))
		for i, v := range s.Vars {
			row[i] = mu[v] // unbound stays the zero Term
		}
		if s.seen != nil {
			k := row.Key()
			if _, dup := s.seen[k]; dup {
				continue
			}
			s.seen[k] = struct{}{}
		}
		s.emitted++
		if s.limit > 0 && s.emitted >= s.limit {
			// the cap is reached: this row is the last — release the
			// underlying scan now instead of waiting for Close
			s.Close()
		}
		return row, true
	}
	return nil, false
}

// Produced reports how many solution rows the underlying evaluation
// produced so far — the observable cost of the scan at the peer, used by
// tests pinning early termination.
func (s *RowStream) Produced() int64 { return s.produced }

// Close releases the underlying plan iterators. Closing early abandons the
// rest of the scan; Next afterwards reports exhaustion.
func (s *RowStream) Close() {
	if s.it != nil {
		s.it.Close()
		s.it = nil
	}
}

// EvalStream evaluates the query as a pull stream over one point-in-time
// snapshot of g. The whole query lowers to one operator tree that opens
// lazily: rows reach the caller as the scan produces them, and closing the
// stream (or reaching LIMIT) abandons the rest of the scan. Only hash-join
// build sides (a group's non-BGP children) and UNION arms are drained up
// front. ASK evaluates to the first row and stops.
//
// SELECT rows arrive in plan order, and under LIMIT k the stream ends after
// the first k; Eval returns the same rows sorted. Streams bypass the answer
// cache. Cancellation truncates the stream; callers check ctx.Err().
func (q *Query) EvalStream(ctx context.Context, g rdf.Source) *RowStream {
	g = rdf.Freeze(g)
	node, _ := lower(g, q.Where)
	it := node.Open(ctx, g)
	s := &RowStream{Form: q.Form, Vars: q.ProjectedVars()}
	if q.Form == FormAsk {
		_, s.True = it.Next()
		if s.True {
			s.produced = 1
		}
		it.Close()
		return s
	}
	s.it, s.limit = it, q.Limit
	if q.Distinct {
		s.seen = make(map[string]struct{})
	}
	return s
}
