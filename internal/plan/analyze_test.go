package plan_test

import (
	"context"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/rdf"
)

// chainGraph builds s_i -p-> m_(i%k) -q-> v_(i%k): a two-hop join shape
// with known cardinalities.
func chainGraph(n, k int) *rdf.Graph {
	g := rdf.NewGraph()
	p := rdf.IRI("http://e/p")
	q := rdf.IRI("http://e/q")
	for i := 0; i < n; i++ {
		g.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://e/s%d", i)), P: p,
			O: rdf.IRI(fmt.Sprintf("http://e/m%d", i%k)),
		})
	}
	for i := 0; i < k; i++ {
		g.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://e/m%d", i)), P: q,
			O: rdf.IRI(fmt.Sprintf("http://e/v%d", i)),
		})
	}
	return g
}

func chainQuery() pattern.Query {
	p := rdf.IRI("http://e/p")
	q := rdf.IRI("http://e/q")
	return pattern.MustQuery([]string{"x", "z"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(p), pattern.V("y")),
		pattern.TP(pattern.V("y"), pattern.C(q), pattern.V("z")),
	})
}

var analyzeTimeRe = regexp.MustCompile(`time=[^ )]+`)

// TestExplainAnalyzeQuery checks the analyzed tree against a golden shape
// (times scrubbed) and that the root row count equals the query's actual
// answer cardinality.
func TestExplainAnalyzeQuery(t *testing.T) {
	g := chainGraph(24, 4)
	q := chainQuery()

	s, rows, err := plan.ExplainAnalyzeQuery(context.Background(), g, q)
	if err != nil {
		t.Fatal(err)
	}
	want := plan.ExecuteQuery(g, q).Len()
	if rows != want {
		t.Fatalf("analyzed root rows = %d, ExecuteQuery = %d", rows, want)
	}
	scrubbed := analyzeTimeRe.ReplaceAllString(s, "time=X")
	for _, line := range []string{
		fmt.Sprintf("Distinct (actual rows=%d nexts=%d time=X)", want, want+1),
		fmt.Sprintf("Project[?x ?z] (actual rows=24 nexts=25 time=X)"),
		"Filter[certain] (actual rows=24",
		"IndexScan",
	} {
		if !strings.Contains(scrubbed, line) {
			t.Errorf("analyzed output missing %q:\n%s", line, scrubbed)
		}
	}
	if !strings.Contains(scrubbed, "-- snapshot: epoch") {
		t.Errorf("missing epoch header:\n%s", scrubbed)
	}
}

// TestExplainAnalyzeHashJoinBuild pins the hash-join annotation: the
// build=N figure equals the build-side child's rows, exactly (instrumented
// joins build sequentially).
func TestExplainAnalyzeHashJoinBuild(t *testing.T) {
	g := chainGraph(24, 4)
	p := rdf.IRI("http://e/p")
	q := rdf.IRI("http://e/q")
	join := &plan.HashJoin{
		Left:   &plan.IndexScan{TP: pattern.TP(pattern.V("x"), pattern.C(p), pattern.V("y"))},
		Right:  &plan.IndexScan{TP: pattern.TP(pattern.V("y"), pattern.C(q), pattern.V("z"))},
		Shared: []string{"y"},
	}
	root := plan.Instrument(join)
	rows := len(plan.Drain(root.Open(context.Background(), g)))
	if rows != 24 {
		t.Fatalf("join rows = %d, want 24", rows)
	}
	s := plan.Format(root)
	if !strings.Contains(s, "build=4") {
		t.Errorf("expected build=4 on the hash join line:\n%s", s)
	}
}

// TestExplainAnalyzeUCQRows checks the UCQ variant: the root Distinct's
// count equals UnionQueries' deduplicated answer count.
func TestExplainAnalyzeUCQRows(t *testing.T) {
	g := chainGraph(24, 4)
	qs := []pattern.Query{chainQuery(), chainQuery()} // duplicate disjuncts dedup to one
	s, rows, err := plan.ExplainAnalyzeUCQ(context.Background(), g, qs)
	if err != nil {
		t.Fatal(err)
	}
	want := plan.UnionQueries(g, qs, false).Len()
	if rows != want {
		t.Fatalf("analyzed UCQ rows = %d, UnionQueries = %d", rows, want)
	}
	if !strings.Contains(s, "Union[parallel branches=2]") {
		t.Errorf("missing parallel union line:\n%s", s)
	}
}

// TestExecuteCtxCancellation: a canceled context truncates the stream —
// far fewer rows than the full result — and reports context.Canceled.
func TestExecuteCtxCancellation(t *testing.T) {
	g := chainGraph(100000, 100)
	gp := pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(rdf.IRI("http://e/p")), pattern.V("y")),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before Open: at most one poll interval of rows
	rows, err := plan.ExecuteCtx(ctx, g, gp)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rows) >= 100000 {
		t.Fatalf("canceled execution still produced all %d rows", len(rows))
	}
}

// TestExecuteCtxDeadline: a deadline expiring mid-iteration stops the scan
// without leaking goroutines (the fan-out workers drain and exit).
func TestExecuteCtxDeadline(t *testing.T) {
	g := chainGraph(100000, 100)
	gp := pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(rdf.IRI("http://e/p")), pattern.V("y")),
		pattern.TP(pattern.V("y"), pattern.C(rdf.IRI("http://e/q")), pattern.V("z")),
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline pass
	rows, err := plan.ExecuteCtx(ctx, g, gp)
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if len(rows) >= 100000 {
		t.Fatalf("expired execution still produced all %d rows", len(rows))
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after expired execution", before, runtime.NumGoroutine())
}

// TestExecuteCtxBackgroundMatchesExecute: with a background context the
// ctx-aware path is the plain path.
func TestExecuteCtxBackgroundMatchesExecute(t *testing.T) {
	g := chainGraph(500, 10)
	gp := chainQuery().GP
	rows, err := plan.ExecuteCtx(context.Background(), g, gp)
	if err != nil {
		t.Fatal(err)
	}
	if want := plan.Execute(g, gp); !sameBindings(rows, want) {
		t.Errorf("ExecuteCtx(Background) diverges from Execute: %d vs %d rows", len(rows), len(want))
	}
}

// TestExtend pins the Extend operator: constants spliced into every row,
// child rows never mutated, vars merged.
func TestExtend(t *testing.T) {
	c := rdf.IRI("http://e/c")
	shared := pattern.Binding{"x": rdf.IRI("http://e/s")}
	e := &plan.Extend{
		Child: &plan.InlineBindings{Names: []string{"x"}, Rows: []pattern.Binding{shared}},
		Bound: map[string]rdf.Term{"b": c},
	}
	if got := e.Vars(); len(got) != 2 || got[0] != "b" || got[1] != "x" {
		t.Fatalf("Vars = %v", got)
	}
	rows := plan.Drain(e.Open(context.Background(), nil))
	if len(rows) != 1 || rows[0]["b"] != c || rows[0]["x"] != shared["x"] {
		t.Fatalf("rows = %v", rows)
	}
	if _, leaked := shared["b"]; leaked {
		t.Fatal("Extend mutated the shared child row")
	}
	if s := plan.Format(e); !strings.Contains(s, "Extend[?b=<http://e/c>]") {
		t.Errorf("format = %q", s)
	}
}
