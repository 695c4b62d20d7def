package sparql

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/rdf"
)

// Result holds the outcome of evaluating a query.
type Result struct {
	// Form echoes the query form.
	Form Form
	// Vars is the projection (SELECT only), in order.
	Vars []string
	// Rows holds one tuple per solution, aligned with Vars (SELECT only).
	Rows []pattern.Tuple
	// True is the ASK verdict (ASK only).
	True bool
}

// Eval evaluates the query over a graph under the fragment's semantics:
// BGPs per Definition 1, joins and OPTIONAL over compatible solution
// mappings, UNION as the union of solution multisets, filters as
// post-selection, SELECT as projection (bag; set under DISTINCT). The
// source is frozen once up front, so the entire query evaluates against one
// point-in-time snapshot and concurrent bulk loads can neither stall nor
// tear it.
//
// Eval is EvalStream drained and sorted: under LIMIT k it returns the first
// k rows in plan order — exactly the rows EvalStream yields — in sorted
// order. Eval (through EvalCtx) is the only path that consults the answer
// cache.
func (q *Query) Eval(g rdf.Source) *Result {
	res, _ := q.EvalCtx(context.Background(), g)
	return res
}

// EvalCtx is Eval under a request context: plan iterators poll ctx and stop
// producing tuples once the deadline passes or the caller cancels. A
// canceled evaluation returns the (possibly truncated) result built so far
// together with ctx.Err(), so servers can drop it and report the timeout.
func (q *Query) EvalCtx(ctx context.Context, g rdf.Source) (*Result, error) {
	g = rdf.Freeze(g)
	if res, err, ok := q.evalCached(ctx, g); ok {
		return res, err
	}
	return q.evalUncached(ctx, g)
}

func (q *Query) evalUncached(ctx context.Context, g rdf.Source) (*Result, error) {
	rs := q.EvalStream(ctx, g)
	defer rs.Close()
	res := &Result{Form: q.Form, True: rs.True}
	if q.Form == FormAsk {
		return res, ctx.Err()
	}
	res.Vars = rs.Vars
	for {
		row, ok := rs.Next()
		if !ok {
			break
		}
		res.Rows = append(res.Rows, row)
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].Compare(res.Rows[j]) < 0 })
	return res, ctx.Err()
}

// lower translates an expression into its operator tree, the one evaluator
// behind Eval and EvalStream: a group's BGP through the planner, each child
// hash-joined on (OPTIONAL: left-joined to) the rows so far, VALUES as an
// inline relation, UNION as a parallel union merged in branch order, and
// the group's filters as σ over the result. certain lists, sorted, the
// variables every row of the tree binds. Join keys are drawn only from
// them, so rows whose domains differ — UNDEF cells, UNION arms, OPTIONAL
// extensions — still hash soundly; the probe's compatibility check covers
// the rest.
func lower(g rdf.Source, e Expr) (n plan.Node, certain []string) {
	switch x := e.(type) {
	case *Group:
		if len(x.BGP) > 0 {
			patternScans.Add(1)
		}
		n, certain = plan.Plan(g, x.BGP), x.BGP.Vars()
		for _, child := range x.Children {
			if opt, ok := child.(*Optional); ok {
				right, rc := lower(g, opt.Inner)
				n = &plan.LeftJoin{HashJoin: plan.HashJoin{Left: n, Right: right, Shared: sharedVars(certain, rc)}}
				continue
			}
			right, rc := lower(g, child)
			if _, empty := n.(plan.Unit); empty {
				// Unit is the identity of ⋈; the child takes its place on
				// the streaming side instead of becoming a build side
				n, certain = right, rc
				continue
			}
			n = &plan.HashJoin{Left: n, Right: right, Shared: sharedVars(certain, rc)}
			certain = unionVars(certain, rc)
		}
		if len(x.Filters) > 0 {
			filters := x.Filters
			n = &plan.Filter{
				Child: n,
				Pred: func(mu pattern.Binding) bool {
					for _, f := range filters {
						if !f.Holds(mu) {
							return false
						}
					}
					return true
				},
				Label: "FILTER",
			}
		}
		return n, certain
	case *Union:
		children := make([]plan.Node, len(x.Alternatives))
		for i, alt := range x.Alternatives {
			var c []string
			children[i], c = lower(g, alt)
			if i == 0 {
				certain = c
			} else {
				certain = sharedVars(certain, c)
			}
		}
		return &plan.Union{Children: children, Parallel: true}, certain
	case *Optional:
		// a bare OPTIONAL is its inner pattern left-joined to the empty
		// solution
		inner, _ := lower(g, x.Inner)
		return &plan.LeftJoin{HashJoin: plan.HashJoin{Left: plan.Unit{}, Right: inner}}, nil
	case *Values:
		rows := x.Bindings()
		for _, name := range x.Names {
			if boundInAll(rows, name) {
				certain = append(certain, name)
			}
		}
		sort.Strings(certain)
		return &plan.InlineBindings{Names: append([]string(nil), x.Names...), Rows: rows}, certain
	}
	panic(fmt.Sprintf("sparql: unsupported expression type %T", e))
}

func boundInAll(rows []pattern.Binding, v string) bool {
	for _, mu := range rows {
		if _, ok := mu[v]; !ok {
			return false
		}
	}
	return true
}

// sharedVars intersects two variable lists, sorted.
func sharedVars(a, b []string) []string {
	var out []string
	for _, v := range b {
		if slices.Contains(a, v) {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// unionVars merges two variable lists, sorted and deduplicated.
func unionVars(a, b []string) []string {
	out := append(append([]string(nil), a...), b...)
	sort.Strings(out)
	return slices.Compact(out)
}

// patternScans counts basic-graph-pattern evaluations — one per non-empty
// group BGP lowered, whatever the transport. The federation tests pin the
// VALUES probe rendering with it: a probe batch of N bindings is one
// pattern scan, where the legacy UNION-of-filtered-copies rendering is N.
var patternScans atomic.Int64

// PatternScans reports the process-wide number of BGP evaluations.
func PatternScans() int64 { return patternScans.Load() }

// Format renders a result table using the namespace table for compact IRIs.
// SELECT results are printed one row per line with tab-separated columns;
// ASK results print "true" or "false".
func (r *Result) Format(ns *rdf.Namespaces) string {
	if ns == nil {
		ns = rdf.NewNamespaces()
	}
	if r.Form == FormAsk {
		if r.True {
			return "true"
		}
		return "false"
	}
	var b strings.Builder
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for i, t := range row {
			if t.IsZero() {
				parts[i] = "UNDEF"
				continue
			}
			parts[i] = ns.ShortenTerm(t)
		}
		b.WriteString(strings.Join(parts, "\t"))
		b.WriteByte('\n')
	}
	return b.String()
}

// TupleSet returns the distinct SELECT rows as a tuple set.
func (r *Result) TupleSet() *pattern.TupleSet {
	s := pattern.NewTupleSet()
	for _, row := range r.Rows {
		s.Add(row)
	}
	return s
}

// Len returns the number of rows (SELECT) or 1/0 for true/false (ASK).
func (r *Result) Len() int {
	if r.Form == FormAsk {
		if r.True {
			return 1
		}
		return 0
	}
	return len(r.Rows)
}

// ToUCQ decomposes the query into a union of conjunctive graph-pattern
// queries, the inverse of FromUCQ. It fails on filters or unions nested
// below the top level in ways that do not flatten to a UCQ.
func (q *Query) ToUCQ() ([]pattern.Query, error) {
	vars := q.ProjectedVars()
	bodies, err := flattenExpr(q.Where)
	if err != nil {
		return nil, err
	}
	out := make([]pattern.Query, 0, len(bodies))
	for _, gp := range bodies {
		// a disjunct must bind every projected variable
		pq, err := pattern.NewQuery(vars, gp)
		if err != nil {
			return nil, fmt.Errorf("sparql: disjunct %q: %w", gp.String(), err)
		}
		out = append(out, pq)
	}
	return out, nil
}

// flattenExpr converts an expression tree to disjunctive normal form as a
// list of conjunctive bodies.
func flattenExpr(e Expr) ([]pattern.GraphPattern, error) {
	switch x := e.(type) {
	case *Group:
		if len(x.Filters) > 0 {
			return nil, fmt.Errorf("sparql: FILTER is outside the UCQ fragment")
		}
		acc := []pattern.GraphPattern{append(pattern.GraphPattern(nil), x.BGP...)}
		for _, child := range x.Children {
			sub, err := flattenExpr(child)
			if err != nil {
				return nil, err
			}
			// distribute: acc × sub
			next := make([]pattern.GraphPattern, 0, len(acc)*len(sub))
			for _, a := range acc {
				for _, s := range sub {
					merged := append(append(pattern.GraphPattern(nil), a...), s...)
					next = append(next, merged)
				}
			}
			acc = next
		}
		return acc, nil
	case *Union:
		var out []pattern.GraphPattern
		for _, alt := range x.Alternatives {
			sub, err := flattenExpr(alt)
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
		}
		return out, nil
	case *Optional:
		return nil, fmt.Errorf("sparql: OPTIONAL is outside the UCQ fragment")
	case *Values:
		return nil, fmt.Errorf("sparql: VALUES is outside the UCQ fragment")
	default:
		return nil, fmt.Errorf("sparql: unsupported expression type %T", e)
	}
}
