package sparql

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/pattern"
	"repro/internal/rdf"
	"repro/internal/turtle"
)

func filmGraph() *rdf.Graph {
	return turtle.MustParseGraph(`
@prefix e: <http://e/> .
e:spiderman e:starring e:toby , e:kirsten .
e:toby e:artist e:tobyA .
e:kirsten e:artist e:kirstenA .
e:tobyA e:age "39" .
e:kirstenA e:age "32" .
`)
}

func TestParseSelectBasics(t *testing.T) {
	q := MustParse(`
PREFIX e: <http://e/>
SELECT ?x ?y WHERE { e:spiderman e:starring ?z . ?z e:artist ?x . ?x e:age ?y }`)
	if q.Form != FormSelect || q.Distinct || q.Star {
		t.Error("query header misparsed")
	}
	if len(q.Vars) != 2 || q.Vars[0] != "x" || q.Vars[1] != "y" {
		t.Errorf("Vars = %v", q.Vars)
	}
	if !q.IsConjunctive() {
		t.Error("plain BGP should be conjunctive")
	}
	g, ok := q.Where.(*Group)
	if !ok || len(g.BGP) != 3 {
		t.Fatalf("BGP = %v", q.Where)
	}
	if g.BGP[0].P.Term() != rdf.IRI("http://e/starring") {
		t.Errorf("prefix not expanded: %v", g.BGP[0])
	}
}

func TestEvalSelect(t *testing.T) {
	q := MustParse(`
PREFIX e: <http://e/>
SELECT ?x ?y WHERE { e:spiderman e:starring ?z . ?z e:artist ?x . ?x e:age ?y }`)
	res := q.Eval(filmGraph())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	set := res.TupleSet()
	if !set.Has(pattern.Tuple{rdf.IRI("http://e/tobyA"), rdf.Literal("39")}) {
		t.Errorf("missing toby row: %v", res.Rows)
	}
	if !set.Has(pattern.Tuple{rdf.IRI("http://e/kirstenA"), rdf.Literal("32")}) {
		t.Errorf("missing kirsten row: %v", res.Rows)
	}
}

func TestEvalSelectStar(t *testing.T) {
	q := MustParse(`PREFIX e: <http://e/> SELECT * WHERE { ?s e:age ?o }`)
	res := q.Eval(filmGraph())
	if len(res.Vars) != 2 || res.Vars[0] != "o" || res.Vars[1] != "s" {
		t.Errorf("star projection = %v", res.Vars)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalDistinct(t *testing.T) {
	g := turtle.MustParseGraph(`
@prefix e: <http://e/> .
e:a e:p e:x . e:b e:p e:x .
`)
	q := MustParse(`PREFIX e: <http://e/> SELECT ?o WHERE { ?s e:p ?o }`)
	if res := q.Eval(g); len(res.Rows) != 2 {
		t.Errorf("bag semantics rows = %d, want 2", len(res.Rows))
	}
	qd := MustParse(`PREFIX e: <http://e/> SELECT DISTINCT ?o WHERE { ?s e:p ?o }`)
	if res := qd.Eval(g); len(res.Rows) != 1 {
		t.Errorf("distinct rows = %d, want 1", len(res.Rows))
	}
}

func TestEvalAsk(t *testing.T) {
	yes := MustParse(`PREFIX e: <http://e/> ASK { e:tobyA e:age "39" }`)
	if res := yes.Eval(filmGraph()); !res.True || res.Len() != 1 {
		t.Error("ASK should be true")
	}
	no := MustParse(`PREFIX e: <http://e/> ASK { e:tobyA e:age "99" }`)
	if res := no.Eval(filmGraph()); res.True || res.Len() != 0 {
		t.Error("ASK should be false")
	}
}

func TestEvalUnion(t *testing.T) {
	q := MustParse(`
PREFIX e: <http://e/>
SELECT ?x WHERE { { ?x e:age "39" } UNION { ?x e:age "32" } }`)
	res := q.Eval(filmGraph())
	if len(res.Rows) != 2 {
		t.Fatalf("union rows = %v", res.Rows)
	}
}

func TestEvalNestedUnionJoin(t *testing.T) {
	// join of a BGP with a union child
	q := MustParse(`
PREFIX e: <http://e/>
SELECT ?f ?x WHERE {
  ?f e:starring ?z . ?z e:artist ?x .
  { ?x e:age "39" } UNION { ?x e:age "32" }
}`)
	res := q.Eval(filmGraph())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, row := range res.Rows {
		if row[0] != rdf.IRI("http://e/spiderman") {
			t.Errorf("film = %v", row[0])
		}
	}
}

func TestEvalFilter(t *testing.T) {
	q := MustParse(`
PREFIX e: <http://e/>
SELECT ?x ?y WHERE { ?x e:age ?y . FILTER(?y = "39") }`)
	res := q.Eval(filmGraph())
	if len(res.Rows) != 1 || res.Rows[0][1] != rdf.Literal("39") {
		t.Fatalf("filter rows = %v", res.Rows)
	}
	qn := MustParse(`
PREFIX e: <http://e/>
SELECT ?x WHERE { ?x e:age ?y . FILTER(?y != "39") }`)
	res = qn.Eval(filmGraph())
	if len(res.Rows) != 1 || res.Rows[0][0] != rdf.IRI("http://e/kirstenA") {
		t.Fatalf("neq filter rows = %v", res.Rows)
	}
}

func TestFilterUnboundIsFalse(t *testing.T) {
	c := Cond{Left: pattern.V("nope"), Right: pattern.C(rdf.Literal("x"))}
	if c.Holds(pattern.Binding{}) {
		t.Error("unbound var in filter should not hold")
	}
}

func TestParseSemicolonComma(t *testing.T) {
	q := MustParse(`
PREFIX e: <http://e/>
SELECT ?a WHERE { e:s e:p ?a , ?b ; e:q ?c . }`)
	g := q.Where.(*Group)
	if len(g.BGP) != 3 {
		t.Fatalf("BGP = %v", g.BGP)
	}
	if g.BGP[2].P.Term() != rdf.IRI("http://e/q") {
		t.Errorf("semicolon predicate wrong: %v", g.BGP[2])
	}
}

func TestParseLiteralForms(t *testing.T) {
	q := MustParse(`
PREFIX e: <http://e/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?x WHERE { ?x e:a "plain" ; e:b "tagged"@en ; e:c "7"^^xsd:int ; e:d 42 ; e:e 3.5 ; e:f true }`)
	g := q.Where.(*Group)
	wantO := []rdf.Term{
		rdf.Literal("plain"),
		rdf.LangLiteral("tagged", "en"),
		rdf.TypedLiteral("7", "http://www.w3.org/2001/XMLSchema#int"),
		rdf.TypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"),
		rdf.TypedLiteral("3.5", "http://www.w3.org/2001/XMLSchema#decimal"),
		rdf.TypedLiteral("true", "http://www.w3.org/2001/XMLSchema#boolean"),
	}
	if len(g.BGP) != len(wantO) {
		t.Fatalf("BGP size = %d", len(g.BGP))
	}
	for i, w := range wantO {
		if g.BGP[i].O.Term() != w {
			t.Errorf("object %d = %v, want %v", i, g.BGP[i].O.Term(), w)
		}
	}
}

func TestParseAKeyword(t *testing.T) {
	q := MustParse(`PREFIX e: <http://e/> SELECT ?x WHERE { ?x a e:Film }`)
	g := q.Where.(*Group)
	if g.BGP[0].P.Term().Value() != "http://www.w3.org/1999/02/22-rdf-syntax-ns#type" {
		t.Errorf("'a' not expanded: %v", g.BGP[0].P)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT ?x`,                      // missing where
		`SELECT WHERE { ?x ?p ?o }`,      // missing projection
		`SELECT ?zzz WHERE { ?x ?p ?o }`, // projected var not in scope
		`CONSTRUCT { ?x ?p ?o } WHERE { ?x ?p ?o }`,     // unsupported form
		`SELECT ?x WHERE { ?x ?p }`,                     // incomplete triple
		`SELECT ?x WHERE { "lit" ?p ?x }`,               // literal subject
		`SELECT ?x WHERE { ?x "lit" ?y }`,               // literal predicate
		`SELECT ?x WHERE { ?x foo:p ?y }`,               // unbound prefix
		`ASK { ?x ?p ?o`,                                // unterminated group
		`SELECT ?x WHERE { ?x ?p ?o } trailing`,         // trailing tokens
		`SELECT ?x WHERE { ?x ?p ?o . FILTER(?x < 3) }`, // unsupported operator
	}
	for _, in := range bad {
		if _, err := Parse(in, rdf.CommonNamespaces()); err == nil {
			t.Errorf("expected parse error for %q", in)
		}
	}
}

func TestToPatternQueryAndBack(t *testing.T) {
	q := MustParse(`
PREFIX e: <http://e/>
SELECT ?x ?y WHERE { e:spiderman e:starring ?z . ?z e:artist ?x . ?x e:age ?y }`)
	pq, err := q.ToPatternQuery()
	if err != nil {
		t.Fatal(err)
	}
	if pq.Arity() != 2 || len(pq.GP) != 3 {
		t.Fatalf("pattern query = %v", pq)
	}
	back := FromPatternQuery(pq, q.Ns)
	res1 := q.Eval(filmGraph()).TupleSet()
	res2 := back.Eval(filmGraph()).TupleSet()
	if !res1.Equal(res2) {
		t.Error("round-tripped query differs in results")
	}
	// non-conjunctive should fail
	u := MustParse(`PREFIX e: <http://e/> SELECT ?x WHERE { { ?x e:age "39" } UNION { ?x e:age "32" } }`)
	if _, err := u.ToPatternQuery(); err == nil {
		t.Error("union should not convert to a conjunctive pattern query")
	}
}

func TestFromUCQAndToUCQ(t *testing.T) {
	ns := rdf.CommonNamespaces()
	ns.Bind("e", "http://e/")
	q1 := pattern.MustQuery([]string{"x"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(rdf.IRI("http://e/age")), pattern.C(rdf.Literal("39"))),
	})
	q2 := pattern.MustQuery([]string{"x"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(rdf.IRI("http://e/age")), pattern.C(rdf.Literal("32"))),
	})
	uq, err := FromUCQ([]pattern.Query{q1, q2}, ns)
	if err != nil {
		t.Fatal(err)
	}
	res := uq.Eval(filmGraph())
	if len(res.Rows) != 2 {
		t.Fatalf("UCQ eval rows = %v", res.Rows)
	}
	back, err := uq.ToUCQ()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("ToUCQ size = %d", len(back))
	}
	// single disjunct collapses
	single, err := FromUCQ([]pattern.Query{q1}, ns)
	if err != nil {
		t.Fatal(err)
	}
	if !single.IsConjunctive() {
		t.Error("single-disjunct UCQ should be conjunctive")
	}
	if _, err := FromUCQ(nil, ns); err == nil {
		t.Error("empty UCQ should error")
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	texts := []string{
		`PREFIX e: <http://e/> SELECT ?x ?y WHERE { e:spiderman e:starring ?z . ?z e:artist ?x . ?x e:age ?y }`,
		`PREFIX e: <http://e/> SELECT DISTINCT ?x WHERE { { ?x e:age "39" } UNION { ?x e:age "32" } }`,
		`PREFIX e: <http://e/> ASK { e:tobyA e:age "39" }`,
		`PREFIX e: <http://e/> SELECT ?x WHERE { ?x e:age ?y . FILTER(?y = "39") }`,
	}
	g := filmGraph()
	for _, text := range texts {
		q1, err := Parse(text, rdf.CommonNamespaces())
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		rendered := q1.String()
		q2, err := Parse(rendered, q1.Ns)
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", rendered, err)
		}
		r1, r2 := q1.Eval(g), q2.Eval(g)
		if r1.Form == FormAsk {
			if r1.True != r2.True {
				t.Errorf("ASK round trip differs for %q", text)
			}
			continue
		}
		if !r1.TupleSet().Equal(r2.TupleSet()) {
			t.Errorf("round trip differs for %q -> %q", text, rendered)
		}
	}
}

func TestResultFormat(t *testing.T) {
	q := MustParse(`PREFIX e: <http://e/> SELECT ?x ?y WHERE { ?x e:age ?y }`)
	ns := rdf.NewNamespaces()
	ns.Bind("e", "http://e/")
	out := q.Eval(filmGraph()).Format(ns)
	if !strings.Contains(out, "e:tobyA\t\"39\"") {
		t.Errorf("Format output:\n%s", out)
	}
	ask := MustParse(`PREFIX e: <http://e/> ASK { e:tobyA e:age "39" }`)
	if got := ask.Eval(filmGraph()).Format(ns); got != "true" {
		t.Errorf("ASK format = %q", got)
	}
}

func TestEvalVarPredicate(t *testing.T) {
	q := MustParse(`PREFIX e: <http://e/> SELECT ?p WHERE { e:toby ?p e:tobyA }`)
	res := q.Eval(filmGraph())
	if len(res.Rows) != 1 || res.Rows[0][0] != rdf.IRI("http://e/artist") {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestUnionFlattening(t *testing.T) {
	q := MustParse(`
PREFIX e: <http://e/>
SELECT ?x WHERE { { ?x e:age "39" } UNION { ?x e:age "32" } UNION { ?x e:age "59" } }`)
	u, ok := q.Where.(*Union)
	if !ok {
		t.Fatalf("expected Union, got %T", q.Where)
	}
	if len(u.Alternatives) != 3 {
		t.Errorf("alternatives = %d, want 3", len(u.Alternatives))
	}
}

func TestEvalOptional(t *testing.T) {
	g := turtle.MustParseGraph(`
@prefix e: <http://e/> .
e:a e:name "Alice" . e:a e:age "30" .
e:b e:name "Bob" .
`)
	a, b, age := rdf.IRI("http://e/a"), rdf.IRI("http://e/b"), rdf.Literal("30")
	var undef rdf.Term
	for _, tc := range []struct {
		name, where string
		want        []pattern.Tuple
	}{
		{"group", `{ ?x e:name ?n . OPTIONAL { ?x e:age ?age } }`, []pattern.Tuple{{a, age}, {b, undef}}},
		// a bare top-level OPTIONAL left-joins the empty solution: its
		// matches when there are any, one all-unbound row otherwise
		{"bare top-level", `{ OPTIONAL { ?x e:age ?age } }`, []pattern.Tuple{{a, age}}},
		{"bare top-level, no match", `{ OPTIONAL { ?x e:missing ?age } }`, []pattern.Tuple{{undef, undef}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkRows(t, MustParse(`PREFIX e: <http://e/> SELECT ?x ?age WHERE `+tc.where), g, tc.want)
		})
	}
	// formatting shows UNDEF for the unbound cell
	q := MustParse(`PREFIX e: <http://e/> SELECT ?x ?age WHERE { ?x e:name ?n . OPTIONAL { ?x e:age ?age } }`)
	out := q.Eval(g).Format(nil)
	if !strings.Contains(out, "UNDEF") {
		t.Errorf("Format should show UNDEF:\n%s", out)
	}
}

func TestOptionalCompatibilitySemantics(t *testing.T) {
	// the optional part must bind compatibly or be dropped
	g := turtle.MustParseGraph(`
@prefix e: <http://e/> .
e:a e:p e:x . e:x e:q e:y .
e:b e:p e:z .
`)
	q := MustParse(`
PREFIX e: <http://e/>
SELECT ?s ?o WHERE { ?s e:p ?m . OPTIONAL { ?m e:q ?o } }`)
	res := q.Eval(g)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, row := range res.Rows {
		if row[0] == rdf.IRI("http://e/a") && row[1] != rdf.IRI("http://e/y") {
			t.Errorf("a's optional should bind y: %v", row)
		}
		if row[0] == rdf.IRI("http://e/b") && !row[1].IsZero() {
			t.Errorf("b's optional should be unbound: %v", row)
		}
	}
}

func TestOptionalRoundTripAndFragmentChecks(t *testing.T) {
	q := MustParse(`PREFIX e: <http://e/> SELECT ?x ?y WHERE { ?x e:p ?z . OPTIONAL { ?z e:q ?y } }`)
	if q.IsConjunctive() {
		t.Error("OPTIONAL is not conjunctive")
	}
	if _, err := q.ToPatternQuery(); err == nil {
		t.Error("OPTIONAL must not convert to a pattern query")
	}
	if _, err := q.ToUCQ(); err == nil {
		t.Error("OPTIONAL must not convert to a UCQ")
	}
	rendered := q.String()
	if !strings.Contains(rendered, "OPTIONAL") {
		t.Errorf("rendering lost OPTIONAL: %s", rendered)
	}
	q2, err := Parse(rendered, q.Ns)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	g := filmGraph()
	if !q.Eval(g).TupleSet().Equal(q2.Eval(g).TupleSet()) {
		t.Error("OPTIONAL round trip changes results")
	}
}

func TestNestedOptional(t *testing.T) {
	g := turtle.MustParseGraph(`
@prefix e: <http://e/> .
e:a e:name "A" . e:a e:city e:c1 . e:c1 e:country "X" .
e:b e:name "B" . e:b e:city e:c2 .
e:d e:name "D" .
`)
	c1, c2, x := rdf.IRI("http://e/c1"), rdf.IRI("http://e/c2"), rdf.Literal("X")
	A, B, D := rdf.Literal("A"), rdf.Literal("B"), rdf.Literal("D")
	var undef rdf.Term
	for _, tc := range []struct {
		name, where string
		want        []pattern.Tuple
	}{
		{"nested", `{ ?x e:name ?n . OPTIONAL { ?x e:city ?city . OPTIONAL { ?city e:country ?country } } }`,
			[]pattern.Tuple{{A, c1, x}, {B, c2, undef}, {D, undef, undef}}},
		// the second OPTIONAL shares ?city with the first one's optional
		// part: D leaves ?city unbound, so every country row is compatible
		// with it (plain SPARQL semantics for a non-well-designed pattern)
		{"sequential, sharing an optional variable", `{ ?x e:name ?n . OPTIONAL { ?x e:city ?city } OPTIONAL { ?city e:country ?country } }`,
			[]pattern.Tuple{{A, c1, x}, {B, c2, undef}, {D, c1, x}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkRows(t, MustParse(`PREFIX e: <http://e/> SELECT ?n ?city ?country WHERE `+tc.where), g, tc.want)
		})
	}
}

// checkRows asserts that Eval and EvalStream both return exactly the bag
// want (zero Terms are unbound cells).
func checkRows(t *testing.T, q *Query, g rdf.Source, want []pattern.Tuple) {
	t.Helper()
	want = sortedRows(want)
	if got := q.Eval(g).Rows; !slices.EqualFunc(got, want, pattern.Tuple.Equal) {
		t.Errorf("Eval rows = %v, want %v", got, want)
	}
	if got := sortedRows(streamRows(q, g)); !slices.EqualFunc(got, want, pattern.Tuple.Equal) {
		t.Errorf("EvalStream rows = %v, want %v", got, want)
	}
}

func sortedRows(rows []pattern.Tuple) []pattern.Tuple {
	out := slices.Clone(rows)
	slices.SortFunc(out, pattern.Tuple.Compare)
	return out
}
