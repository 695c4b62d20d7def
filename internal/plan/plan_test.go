package plan_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/rdf"
)

// canonical renders a binding multiset order-independently, domains
// included, so plan and naive results can be compared exactly.
func canonical(om []pattern.Binding) []string {
	out := make([]string, len(om))
	for i, mu := range om {
		vars := make([]string, 0, len(mu))
		for v := range mu {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		var b strings.Builder
		for _, v := range vars {
			fmt.Fprintf(&b, "%s=%s;", v, mu[v])
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

func sameBindings(a, b []pattern.Binding) bool {
	ca, cb := canonical(a), canonical(b)
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

// randomCase builds a small random graph and graph pattern over a shared
// constant pool, so patterns frequently (but not always) match.
func randomCase(rng *rand.Rand) (*rdf.Graph, pattern.GraphPattern) {
	return randomCaseSharded(rng, 0)
}

// randomCaseSharded is randomCase over a store with a fixed shard count
// (0 = the default).
func randomCaseSharded(rng *rand.Rand, shards int) (*rdf.Graph, pattern.GraphPattern) {
	subjects := make([]rdf.Term, 6)
	for i := range subjects {
		subjects[i] = rdf.IRI(fmt.Sprintf("http://e/s%d", i))
	}
	preds := make([]rdf.Term, 3)
	for i := range preds {
		preds[i] = rdf.IRI(fmt.Sprintf("http://e/p%d", i))
	}
	objects := []rdf.Term{
		rdf.IRI("http://e/o0"), rdf.IRI("http://e/o1"), rdf.IRI("http://e/s0"),
		rdf.Literal("a"), rdf.Literal("b|c"), rdf.Blank("n1"),
	}
	var g *rdf.Graph
	if shards > 0 {
		g = rdf.NewGraphSharded(shards)
	} else {
		g = rdf.NewGraph()
	}
	for n := rng.Intn(40); n > 0; n-- {
		g.Add(rdf.Triple{
			S: subjects[rng.Intn(len(subjects))],
			P: preds[rng.Intn(len(preds))],
			O: objects[rng.Intn(len(objects))],
		})
	}
	vars := []string{"x", "y", "z", "w"}
	elem := func(pool []rdf.Term) pattern.Elem {
		if rng.Intn(2) == 0 {
			return pattern.V(vars[rng.Intn(len(vars))])
		}
		return pattern.C(pool[rng.Intn(len(pool))])
	}
	gp := make(pattern.GraphPattern, 1+rng.Intn(4))
	for i := range gp {
		gp[i] = pattern.TP(elem(subjects), elem(preds), elem(objects))
	}
	return g, gp
}

// TestExecuteMatchesNaive is the planner/executor equivalence property:
// plan.Execute returns the same binding multiset as the Definition 1 oracle
// pattern.EvalNaive on random graphs and patterns.
func TestExecuteMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, gp := randomCase(rng)
		return sameBindings(plan.Execute(g, gp), pattern.EvalNaive(g, gp))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestExecuteMatchesNaiveSharded re-runs the planner≡naive property over
// stores with explicit shard counts: sharding must be invisible to query
// results.
func TestExecuteMatchesNaiveSharded(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				g, gp := randomCaseSharded(rng, shards)
				return sameBindings(plan.Execute(g, gp), pattern.EvalNaive(g, gp))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEmptyPattern(t *testing.T) {
	g := rdf.NewGraph()
	got := plan.Execute(g, nil)
	if len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("empty pattern = %v, want one empty binding", got)
	}
}

// TestGoldenJoinOrderSelective pins the planner's join-order choice: the
// selective pattern must become the leaf scan even though it is textually
// second, and the common pattern probes the SPO index with its subject
// bound.
func TestGoldenJoinOrderSelective(t *testing.T) {
	g := rdf.NewGraph()
	common := rdf.IRI("http://e/common")
	rare := rdf.IRI("http://e/rare")
	for i := 0; i < 1000; i++ {
		g.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://e/s%d", i)),
			P: common,
			O: rdf.IRI(fmt.Sprintf("http://e/o%d", i%17)),
		})
	}
	g.Add(rdf.Triple{S: rdf.IRI("http://e/s1"), P: rare, O: rdf.Literal("target")})
	gp := pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(common), pattern.V("y")),
		pattern.TP(pattern.V("x"), pattern.C(rare), pattern.C(rdf.Literal("target"))),
	}
	want := `-- snapshot: epoch 1001
IndexNestedLoopJoin[?x <http://e/common> ?y] idx=spo est=1
  IndexScan[?x <http://e/rare> "target"] idx=pos est=1
`
	if got := plan.Explain(g, gp); got != want {
		t.Errorf("explain mismatch:\ngot:\n%swant:\n%s", got, want)
	}
	if n := len(plan.Execute(g, gp)); n != 1 {
		t.Errorf("result rows = %d, want 1", n)
	}
}

// TestGoldenCrossProductUsesHashJoin pins the operator choice for a
// disconnected pattern: no shared variable means a buffered hash join, not
// a per-row rescan. The smaller input — here the first-picked q scan, whose
// accumulated prefix estimate (2) is below the p leaf's (5) — must be the
// build (Right) side; the bigger side streams.
func TestGoldenCrossProductUsesHashJoin(t *testing.T) {
	g := rdf.NewGraph()
	p := rdf.IRI("http://e/p")
	q := rdf.IRI("http://e/q")
	for i := 0; i < 5; i++ {
		g.Add(rdf.Triple{S: rdf.IRI(fmt.Sprintf("http://e/s%d", i)), P: p, O: rdf.Literal("v")})
	}
	for i := 0; i < 2; i++ {
		g.Add(rdf.Triple{S: rdf.IRI(fmt.Sprintf("http://e/t%d", i)), P: q, O: rdf.Literal("w")})
	}
	gp := pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(p), pattern.V("y")),
		pattern.TP(pattern.V("a"), pattern.C(q), pattern.V("b")),
	}
	want := `-- snapshot: epoch 7
HashJoin[on ×]
  IndexScan[?x <http://e/p> ?y] idx=pos(prefix) est=5
  IndexScan[?a <http://e/q> ?b] idx=pos(prefix) est=2
`
	if got := plan.Explain(g, gp); got != want {
		t.Errorf("explain mismatch:\ngot:\n%swant:\n%s", got, want)
	}
	if n := len(plan.Execute(g, gp)); n != 10 {
		t.Errorf("cross product rows = %d, want 10", n)
	}
}

// TestGoldenHashJoinBuildSidePrefix pins the other polarity of the
// build-side choice: when the accumulated output estimate of the plan
// prefix (4 × 3 = 12 for the p→q chain) exceeds the disconnected leaf's
// estimate (6), the leaf is hashed and the prefix streams.
func TestGoldenHashJoinBuildSidePrefix(t *testing.T) {
	g := rdf.NewGraph()
	p := rdf.IRI("http://e/p")
	q := rdf.IRI("http://e/q")
	r := rdf.IRI("http://e/r")
	for i := 0; i < 4; i++ {
		g.Add(rdf.Triple{S: rdf.IRI(fmt.Sprintf("http://e/s%d", i)), P: p, O: rdf.IRI(fmt.Sprintf("http://e/y%d", i))})
	}
	// 12 q-triples over 4 distinct subjects: est 3 per bound ?y
	for i := 0; i < 12; i++ {
		g.Add(rdf.Triple{S: rdf.IRI(fmt.Sprintf("http://e/y%d", i%4)), P: q, O: rdf.IRI(fmt.Sprintf("http://e/z%d", i))})
	}
	for i := 0; i < 6; i++ {
		g.Add(rdf.Triple{S: rdf.IRI(fmt.Sprintf("http://e/t%d", i)), P: r, O: rdf.Literal("w")})
	}
	gp := pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(p), pattern.V("y")),
		pattern.TP(pattern.V("y"), pattern.C(q), pattern.V("z")),
		pattern.TP(pattern.V("a"), pattern.C(r), pattern.V("b")),
	}
	want := `-- snapshot: epoch 22
HashJoin[on ×]
  IndexNestedLoopJoin[?y <http://e/q> ?z] idx=spo est=3
    IndexScan[?x <http://e/p> ?y] idx=pos(prefix) est=4
  IndexScan[?a <http://e/r> ?b] idx=pos(prefix) est=6
`
	if got := plan.Explain(g, gp); got != want {
		t.Errorf("explain mismatch:\ngot:\n%swant:\n%s", got, want)
	}
	if got, want := len(plan.Execute(g, gp)), len(pattern.EvalNaive(g, gp)); got != want {
		t.Errorf("rows = %d, want %d", got, want)
	}
}

// TestGoldenQueryPlan pins the π·δ wrapper of a graph pattern query.
func TestGoldenQueryPlan(t *testing.T) {
	g := rdf.NewGraph()
	p := rdf.IRI("http://e/p")
	g.Add(rdf.Triple{S: rdf.IRI("http://e/s"), P: p, O: rdf.Literal("v")})
	q := pattern.MustQuery([]string{"x"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(p), pattern.V("y")),
	})
	want := `-- snapshot: epoch 1
Distinct
  Project[?x]
    IndexScan[?x <http://e/p> ?y] idx=pos(prefix) est=1
`
	if got := plan.ExplainQuery(g, q); got != want {
		t.Errorf("explain mismatch:\ngot:\n%swant:\n%s", got, want)
	}
}

func TestAskStopsEarlyAndAgrees(t *testing.T) {
	g := rdf.NewGraph()
	p := rdf.IRI("http://e/p")
	for i := 0; i < 100; i++ {
		g.Add(rdf.Triple{S: rdf.IRI(fmt.Sprintf("http://e/s%d", i)), P: p, O: rdf.Literal("v")})
	}
	gp := pattern.GraphPattern{pattern.TP(pattern.V("x"), pattern.C(p), pattern.V("y"))}
	if !plan.Ask(g, gp) {
		t.Error("Ask = false on satisfiable pattern")
	}
	miss := pattern.GraphPattern{pattern.TP(pattern.V("x"), pattern.C(rdf.IRI("http://e/none")), pattern.V("y"))}
	if plan.Ask(g, miss) {
		t.Error("Ask = true on unsatisfiable pattern")
	}
}

// TestNegativeAskCache pins the Ask fast path: a computed false verdict is
// stored, served from residency on the next identical probe, and dropped
// the moment a write moves the snapshot's epoch vector (the verdict may
// have flipped to true).
func TestNegativeAskCache(t *testing.T) {
	nc := qcache.NewNegCache(16)
	plan.SetNegativeAskCache(nc)
	defer plan.SetNegativeAskCache(nil)

	g := rdf.NewGraph()
	p := rdf.IRI("http://e/p")
	g.Add(rdf.Triple{S: rdf.IRI("http://e/s"), P: p, O: rdf.Literal("v")})
	none := rdf.IRI("http://e/none")
	miss := pattern.GraphPattern{pattern.TP(pattern.V("x"), pattern.C(none), pattern.V("y"))}

	if plan.Ask(g, miss) {
		t.Fatal("Ask = true on unsatisfiable pattern")
	}
	if nc.Len() != 1 {
		t.Fatalf("negative verdict not stored: Len = %d", nc.Len())
	}
	if plan.Ask(g, miss) { // served by the cache: same verdict
		t.Fatal("cached Ask = true")
	}

	// the write moves the epoch vector, so the stale false must be dropped
	// and the fresh scan must see the new triple
	g.Add(rdf.Triple{S: rdf.IRI("http://e/s2"), P: none, O: rdf.Literal("w")})
	if !plan.Ask(g, miss) {
		t.Fatal("Ask = false after the matching triple was added")
	}
}

func TestExecuteQuerySemantics(t *testing.T) {
	g := rdf.NewGraph()
	p := rdf.IRI("http://e/p")
	g.Add(rdf.Triple{S: rdf.IRI("http://e/s"), P: p, O: rdf.Literal("v")})
	g.Add(rdf.Triple{S: rdf.Blank("n"), P: p, O: rdf.Literal("w")})
	q := pattern.MustQuery([]string{"x"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(p), pattern.V("y")),
	})
	if got := plan.ExecuteQuery(g, q).Len(); got != 1 {
		t.Errorf("Q_D answers = %d, want 1 (blank dropped)", got)
	}
	if got := plan.ExecuteQueryStar(g, q).Len(); got != 2 {
		t.Errorf("Q*_D answers = %d, want 2", got)
	}
	want := pattern.EvalQuery(g, q)
	if !plan.ExecuteQuery(g, q).Equal(want) {
		t.Error("ExecuteQuery disagrees with pattern.EvalQuery")
	}
}

// TestUnionQueriesParallel checks the parallel UCQ union against serial
// per-branch evaluation, and that repeated runs are deterministic.
func TestUnionQueriesParallel(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 50; i++ {
		for b := 0; b < 8; b++ {
			g.Add(rdf.Triple{
				S: rdf.IRI(fmt.Sprintf("http://e/s%d", i)),
				P: rdf.IRI(fmt.Sprintf("http://e/p%d", b)),
				O: rdf.IRI(fmt.Sprintf("http://e/o%d", i%5)),
			})
		}
	}
	var qs []pattern.Query
	for b := 0; b < 8; b++ {
		qs = append(qs, pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
			pattern.TP(pattern.V("x"), pattern.C(rdf.IRI(fmt.Sprintf("http://e/p%d", b))), pattern.V("y")),
		}))
	}
	serial := pattern.NewTupleSet()
	for _, q := range qs {
		serial.Merge(plan.ExecuteQuery(g, q))
	}
	got := plan.UnionQueries(g, qs, false)
	if !got.Equal(serial) {
		t.Fatalf("parallel union = %d tuples, serial = %d", got.Len(), serial.Len())
	}
	again := plan.UnionQueries(g, qs, false)
	if !again.Equal(got) {
		t.Error("parallel union is not deterministic")
	}
}

// TestUnionPlanFormat exercises the node-level UCQ union and the plan
// formatter: the parallel Union wraps each branch's π·δ plan.
func TestUnionPlanFormat(t *testing.T) {
	g := rdf.NewGraph()
	p0, p1 := rdf.IRI("http://e/p0"), rdf.IRI("http://e/p1")
	g.Add(rdf.Triple{S: rdf.IRI("http://e/a"), P: p0, O: rdf.Literal("1")})
	g.Add(rdf.Triple{S: rdf.IRI("http://e/a"), P: p1, O: rdf.Literal("1")})
	qs := []pattern.Query{
		pattern.MustQuery([]string{"x"}, pattern.GraphPattern{pattern.TP(pattern.V("x"), pattern.C(p0), pattern.V("y"))}),
		pattern.MustQuery([]string{"x"}, pattern.GraphPattern{pattern.TP(pattern.V("x"), pattern.C(p1), pattern.V("y"))}),
	}
	n := plan.UnionPlan(g, qs)
	want := `Distinct
  Union[parallel branches=2]
    Distinct
      Project[?x]
        IndexScan[?x <http://e/p0> ?y] idx=pos(prefix) est=1
    Distinct
      Project[?x]
        IndexScan[?x <http://e/p1> ?y] idx=pos(prefix) est=1
`
	if got := plan.Format(n); got != want {
		t.Errorf("format mismatch:\ngot:\n%swant:\n%s", got, want)
	}
	// both branches bind the same ?x, so the outer Distinct merges them
	if rows := plan.Drain(n.Open(context.Background(), g)); len(rows) != 1 {
		t.Errorf("union rows = %d, want 1", len(rows))
	}
}

// TestUnionNode exercises the sequential and parallel Union operators
// directly, including deterministic branch ordering of the parallel form.
func TestUnionNode(t *testing.T) {
	g := rdf.NewGraph()
	p := rdf.IRI("http://e/p")
	q := rdf.IRI("http://e/q")
	g.Add(rdf.Triple{S: rdf.IRI("http://e/a"), P: p, O: rdf.Literal("1")})
	g.Add(rdf.Triple{S: rdf.IRI("http://e/b"), P: q, O: rdf.Literal("2")})
	children := []plan.Node{
		&plan.IndexScan{TP: pattern.TP(pattern.V("x"), pattern.C(p), pattern.V("y"))},
		&plan.IndexScan{TP: pattern.TP(pattern.V("x"), pattern.C(q), pattern.V("y"))},
	}
	seq := plan.Drain((&plan.Union{Children: children}).Open(context.Background(), g))
	par := plan.Drain((&plan.Union{Children: children, Parallel: true}).Open(context.Background(), g))
	if len(seq) != 2 || len(par) != 2 {
		t.Fatalf("union sizes: seq=%d par=%d, want 2", len(seq), len(par))
	}
	for i := range seq {
		if !sameBindings(seq[i:i+1], par[i:i+1]) {
			t.Fatalf("parallel union order differs at %d: %v vs %v", i, seq[i], par[i])
		}
	}
}

// TestFilterProjectDistinct exercises the σ, π, δ operators composed.
func TestFilterProjectDistinct(t *testing.T) {
	g := rdf.NewGraph()
	p := rdf.IRI("http://e/p")
	for i := 0; i < 6; i++ {
		g.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://e/s%d", i)),
			P: p,
			O: rdf.IRI(fmt.Sprintf("http://e/o%d", i%2)),
		})
	}
	keepO0 := func(mu pattern.Binding) bool {
		return mu["y"] == rdf.IRI("http://e/o0")
	}
	n := &plan.Distinct{Child: &plan.Project{
		Child: &plan.Filter{
			Child: &plan.IndexScan{TP: pattern.TP(pattern.V("x"), pattern.C(p), pattern.V("y"))},
			Pred:  keepO0, Label: "?y = o0",
		},
		Cols: []string{"y"},
	}}
	rows := plan.Drain(n.Open(context.Background(), g))
	if len(rows) != 1 {
		t.Fatalf("distinct projected rows = %d, want 1: %v", len(rows), rows)
	}
	if rows[0]["y"] != rdf.IRI("http://e/o0") {
		t.Errorf("row = %v", rows[0])
	}
}

// TestPlannedEvalHook verifies the init-time registration: with this
// package linked, pattern.Eval routes through the installed evaluator.
func TestPlannedEvalHook(t *testing.T) {
	marker := []pattern.Binding{{"hook": rdf.Literal("hit")}}
	pattern.SetPlannedEval(func(rdf.Source, pattern.GraphPattern) []pattern.Binding {
		return marker
	})
	defer pattern.SetPlannedEval(plan.Execute)
	got := pattern.Eval(rdf.NewGraph(), nil)
	if len(got) != 1 || got[0]["hook"] != rdf.Literal("hit") {
		t.Fatalf("pattern.Eval did not route through the installed evaluator: %v", got)
	}
}

// TestEvalDefaultIsPlanner checks that, as linked in this binary,
// pattern.Eval and plan.Execute produce identical results (the hook is
// installed by plan's init).
func TestEvalDefaultIsPlanner(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		g, gp := randomCase(rng)
		if !sameBindings(pattern.Eval(g, gp), plan.Execute(g, gp)) {
			t.Fatalf("pattern.Eval diverges from plan.Execute on case %d", i)
		}
	}
}

// TestParallelBuildEquivalent pins the shard-parallel hash-table build: a
// HashJoin whose build side is a cross-shard fan-out scan must produce
// exactly the rows (and row order) of the sequential build — the per-shard
// tables merge in shard order, which is the order the sequential fan-out
// scan replays its buffers in.
func TestParallelBuildEquivalent(t *testing.T) {
	g := rdf.NewGraphSharded(8)
	hub := rdf.IRI("http://e/hub")
	for i := 0; i < 5000; i++ {
		g.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://e/s%d", i)),
			P: rdf.IRI(fmt.Sprintf("http://e/p%d", i%7)),
			O: hub,
		})
	}
	left := make([]pattern.Binding, 4)
	for i := range left {
		left[i] = pattern.Binding{"k": rdf.Literal(fmt.Sprintf("%d", i))}
	}
	build := func(parallel bool) []pattern.Binding {
		j := &plan.HashJoin{
			Left:          &plan.InlineBindings{Names: []string{"k"}, Rows: left},
			Right:         &plan.IndexScan{TP: pattern.TP(pattern.V("s"), pattern.V("p"), pattern.C(hub)), Fanout: g.ShardCount()},
			ParallelBuild: parallel,
		}
		return plan.Drain(j.Open(context.Background(), g))
	}
	seq, par := build(false), build(true)
	if len(par) != 4*5000 {
		t.Fatalf("parallel build rows = %d, want %d", len(par), 4*5000)
	}
	for i := range seq {
		if !sameBindings(seq[i:i+1], par[i:i+1]) {
			t.Fatalf("row %d differs: sequential %v, parallel %v", i, seq[i], par[i])
		}
	}
}

// TestGoldenParallelBuildAnnotation pins that the planner marks a hash
// join whose build side is a fan-out scan, and that EXPLAIN says so.
func TestGoldenParallelBuildAnnotation(t *testing.T) {
	if runtime.GOMAXPROCS(0) == 1 {
		t.Skip("fan-out marking needs >1 CPU (run with -cpu 4)")
	}
	g := rdf.NewGraphSharded(8)
	hub := rdf.IRI("http://e/hub")
	p := rdf.IRI("http://e/p")
	// 4500 hub-objects: the object-only scan fans out (est ≥ 4096) and, at
	// est 4500 < 5000, becomes the first-picked prefix — the build side of
	// the hash join against the disconnected 5000-row p-scan.
	for i := 0; i < 4500; i++ {
		g.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://e/hs%d", i)),
			P: rdf.IRI(fmt.Sprintf("http://e/hp%d", i%5)),
			O: hub,
		})
	}
	for i := 0; i < 5000; i++ {
		g.Add(rdf.Triple{S: rdf.IRI(fmt.Sprintf("http://e/s%d", i)), P: p, O: rdf.Literal("v")})
	}
	gp := pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(p), pattern.V("y")),
		pattern.TP(pattern.V("a"), pattern.V("q"), pattern.C(hub)),
	}
	out := plan.Explain(g, gp)
	if !strings.Contains(out, "HashJoin[on ×] build=parallel") {
		t.Fatalf("EXPLAIN lacks the parallel-build annotation:\n%s", out)
	}
	if !strings.Contains(out, "fanout=8") {
		t.Fatalf("build side lost its fan-out marking:\n%s", out)
	}
}

// TestINLJProbeBatching checks the batched index-nested-loop path: batched
// and per-row execution produce identical row sequences, and rows that
// instantiate the join pattern identically share one index probe (visible
// as probes < child rows in the analyzed output).
func TestINLJProbeBatching(t *testing.T) {
	g := rdf.NewGraph()
	p := rdf.IRI("http://e/p")
	q := rdf.IRI("http://e/q")
	// 40 subjects funnel into 4 hubs; each hub has 2 q-successors. The
	// join pattern instantiates to only 4 distinct probes per batch.
	for i := 0; i < 40; i++ {
		g.Add(rdf.Triple{S: rdf.IRI(fmt.Sprintf("http://e/s%d", i)), P: p, O: rdf.IRI(fmt.Sprintf("http://e/hub%d", i%4))})
	}
	for h := 0; h < 4; h++ {
		for j := 0; j < 2; j++ {
			g.Add(rdf.Triple{S: rdf.IRI(fmt.Sprintf("http://e/hub%d", h)), P: q, O: rdf.IRI(fmt.Sprintf("http://e/t%d_%d", h, j))})
		}
	}
	scan := func() plan.Node {
		return &plan.IndexScan{TP: pattern.TP(pattern.V("x"), pattern.C(p), pattern.V("y"))}
	}
	jtp := pattern.TP(pattern.V("y"), pattern.C(q), pattern.V("z"))

	perRow := plan.Drain((&plan.IndexNestedLoopJoin{Left: scan(), TP: jtp, Batch: 1}).Open(context.Background(), g))
	batched := plan.Drain((&plan.IndexNestedLoopJoin{Left: scan(), TP: jtp, Batch: 64}).Open(context.Background(), g))
	if len(batched) != 80 || len(perRow) != len(batched) {
		t.Fatalf("row counts: per-row %d, batched %d, want 80", len(perRow), len(batched))
	}
	for i := range perRow {
		if !sameBindings(perRow[i:i+1], batched[i:i+1]) {
			t.Fatalf("row %d differs: per-row %v, batched %v", i, perRow[i], batched[i])
		}
	}

	// a batch that straddles rounds (Batch < child rows) must not lose rows
	small := plan.Drain((&plan.IndexNestedLoopJoin{Left: scan(), TP: jtp, Batch: 7}).Open(context.Background(), g))
	if !sameBindings(small, batched) {
		t.Fatalf("batch=7 rows differ from batch=64")
	}

	// analyzed output shows the batch size and the deduplicated probe count:
	// 40 child rows, 4 distinct hubs -> 4 probes in one 64-row batch
	root := plan.Instrument(&plan.IndexNestedLoopJoin{Left: scan(), TP: jtp, Batch: 64})
	plan.Drain(root.Open(context.Background(), g))
	if s := plan.Format(root); !strings.Contains(s, "batch=64 probes=4") {
		t.Errorf("analyzed output missing \"batch=64 probes=4\":\n%s", s)
	}
}

// TestSkewAwareJoinOrder pins the planner's use of the per-predicate
// heavy-hitter histograms (rdf.PredTopObjects): probing a skewed
// predicate by a bound object looks cheap under the uniform model
// (triples / distinct objects ≈ 2 here) but actually fans out by
// thousands when the bound value is the hub. The histogram shrinks the
// divisor to the effective distinct count, so the planner must join the
// genuinely selective predicate first.
func TestSkewAwareJoinOrder(t *testing.T) {
	ptype := rdf.IRI("http://e/type")
	pb := rdf.IRI("http://e/pb")
	pc := rdf.IRI("http://e/pc")
	var ts []rdf.Triple
	for i := 0; i < 50; i++ {
		ts = append(ts, rdf.Triple{S: rdf.IRI(fmt.Sprintf("http://e/x%d", i)), P: ptype, O: rdf.IRI("http://e/c")})
	}
	// pb: uniform, 100 subjects × 4 objects -> est 4 per bound subject
	for i := 0; i < 100; i++ {
		for j := 0; j < 4; j++ {
			ts = append(ts, rdf.Triple{S: rdf.IRI(fmt.Sprintf("http://e/x%d", i)), P: pb, O: rdf.IRI(fmt.Sprintf("http://e/u%d", j))})
		}
	}
	// pc: skewed, 10000 triples over 5001 distinct objects — one hub
	// object carries half the extension
	for i := 0; i < 10000; i++ {
		o := "http://e/hub"
		if i >= 5000 {
			o = fmt.Sprintf("http://e/o%d", i)
		}
		ts = append(ts, rdf.Triple{S: rdf.IRI(fmt.Sprintf("http://e/w%d", i)), P: pc, O: rdf.IRI(o)})
	}
	g := rdf.NewGraph()
	g.AddAll(ts)

	top := g.PredTopObjects(pc)
	if len(top) == 0 || top[0].Term != rdf.IRI("http://e/hub") || top[0].Count != 5000 {
		t.Fatalf("PredTopObjects(pc) top entry = %+v, want hub with 5000", top)
	}

	gp := pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(ptype), pattern.C(rdf.IRI("http://e/c"))),
		pattern.TP(pattern.V("x"), pattern.C(pb), pattern.V("u")),
		pattern.TP(pattern.V("w"), pattern.C(pc), pattern.V("x")),
	}
	explain := plan.Explain(g, gp)
	pcAt := strings.Index(explain, "<http://e/pc>")
	pbAt := strings.Index(explain, "<http://e/pb>")
	if pcAt < 0 || pbAt < 0 {
		t.Fatalf("explain missing join lines:\n%s", explain)
	}
	// deeper lines joined earlier: pb must sit below pc (pc printed first)
	if !(pcAt < pbAt) {
		t.Errorf("skew-aware planner should join pb before the skewed pc:\n%s", explain)
	}
}
