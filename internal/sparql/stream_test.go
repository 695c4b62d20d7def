package sparql

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/turtle"
)

func TestParseValuesAndString(t *testing.T) {
	q := MustParse(`
PREFIX e: <http://e/>
SELECT DISTINCT ?z ?x WHERE { ?z e:artist ?x . VALUES (?z) { (e:toby) (e:kirsten) } }`)
	g, ok := q.Where.(*Group)
	if !ok || len(g.Children) != 1 {
		t.Fatalf("where = %#v", q.Where)
	}
	v, ok := g.Children[0].(*Values)
	if !ok || len(v.Names) != 1 || v.Names[0] != "z" || len(v.Rows) != 2 {
		t.Fatalf("values = %#v", g.Children[0])
	}
	// String() must serialise the VALUES block so the query survives the wire
	s := q.String()
	if !strings.Contains(s, "VALUES (?z)") {
		t.Errorf("String() lost the VALUES block: %s", s)
	}
	rt, err := Parse(s, q.Ns)
	if err != nil {
		t.Fatalf("reparse of %q failed: %v", s, err)
	}
	if len(rt.Eval(filmGraph()).Rows) != 2 {
		t.Errorf("round-tripped VALUES query misbehaves: %s", s)
	}
}

func TestEvalValuesRestrictsPattern(t *testing.T) {
	toby, tobyA := rdf.IRI("http://e/toby"), rdf.IRI("http://e/tobyA")
	kirsten, kirstenA := rdf.IRI("http://e/kirsten"), rdf.IRI("http://e/kirstenA")
	for _, tc := range []struct {
		name, values string
		want         []pattern.Tuple
	}{
		{"bound", `VALUES (?z) { (e:toby) }`, []pattern.Tuple{{toby, tobyA}}},
		// UNDEF leaves the variable unconstrained in that row
		{"UNDEF", `VALUES (?z) { (UNDEF) }`, []pattern.Tuple{{toby, tobyA}, {kirsten, kirstenA}}},
		{"UNDEF in different columns", `VALUES (?z ?x) { (e:toby UNDEF) (UNDEF e:kirstenA) }`,
			[]pattern.Tuple{{toby, tobyA}, {kirsten, kirstenA}}},
		{"UNDEF and bound rows overlapping", `VALUES (?z ?x) { (e:toby UNDEF) (e:toby e:tobyA) }`,
			[]pattern.Tuple{{toby, tobyA}, {toby, tobyA}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := MustParse(`PREFIX e: <http://e/> SELECT ?z ?x WHERE { ?z e:artist ?x . ` + tc.values + ` }`)
			checkRows(t, q, filmGraph(), tc.want)
		})
	}
}

func TestParseLimit(t *testing.T) {
	q := MustParse(`PREFIX e: <http://e/> SELECT ?s WHERE { ?s e:age ?o } LIMIT 1`)
	if q.Limit != 1 {
		t.Fatalf("Limit = %d", q.Limit)
	}
	if res := q.Eval(filmGraph()); len(res.Rows) != 1 {
		t.Errorf("LIMIT 1 rows = %v", res.Rows)
	}
	if !strings.Contains(q.String(), "LIMIT 1") {
		t.Errorf("String() lost LIMIT: %s", q.String())
	}
	if _, err := Parse(`SELECT ?s WHERE { ?s ?p ?o } LIMIT -3`, nil); err == nil {
		t.Error("negative LIMIT accepted")
	}
}

// A VALUES child lowers to a HashJoin over InlineBindings — visible in the
// rendered plan, and worth one single pattern scan however many bindings
// ride along.
func TestStreamPlanShowsInlineBindings(t *testing.T) {
	q := MustParse(`
PREFIX e: <http://e/>
SELECT DISTINCT ?z ?x WHERE { ?z e:artist ?x . VALUES (?z) { (e:toby) (e:kirsten) } }`)
	node, _ := lower(rdf.Freeze(filmGraph()), q.Where)
	s := plan.Format(node)
	if !strings.Contains(s, "InlineBindings[?z] rows=2") {
		t.Errorf("plan missing the inline build side:\n%s", s)
	}
	if !strings.Contains(s, "HashJoin") {
		t.Errorf("plan missing the hash join:\n%s", s)
	}

	// a 16-row VALUES batch evaluates with exactly one BGP scan
	var vals strings.Builder
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&vals, "(<http://e/s%d>) ", i)
	}
	big := MustParse(`SELECT DISTINCT ?z ?x WHERE { ?z <http://e/artist> ?x . VALUES (?z) { ` + vals.String() + `} }`)
	before := PatternScans()
	rs := big.EvalStream(context.Background(), filmGraph())
	for {
		if _, ok := rs.Next(); !ok {
			break
		}
	}
	rs.Close()
	if got := PatternScans() - before; got != 1 {
		t.Errorf("16-binding VALUES batch took %d pattern scans, want 1", got)
	}
}

// EvalStream must agree with Eval on the row set.
func TestEvalStreamMatchesEval(t *testing.T) {
	for _, text := range []string{
		`PREFIX e: <http://e/> SELECT ?z ?x WHERE { ?z e:artist ?x . VALUES (?z) { (e:toby) (e:kirsten) } }`,
		`PREFIX e: <http://e/> SELECT DISTINCT ?x WHERE { ?s e:artist ?x . VALUES (?s) { (e:toby) (e:toby) } }`,
		`PREFIX e: <http://e/> SELECT ?x ?y WHERE { e:spiderman e:starring ?z . ?z e:artist ?x . ?x e:age ?y }`,
		`PREFIX e: <http://e/> SELECT ?x WHERE { { ?x e:age "39" } UNION { ?x e:age "32" } }`,
	} {
		q := MustParse(text)
		want := q.Eval(filmGraph()).TupleSet()
		rs := q.EvalStream(context.Background(), filmGraph())
		got := pattern.NewTupleSet()
		n := 0
		for {
			row, ok := rs.Next()
			if !ok {
				break
			}
			got.Add(row)
			n++
		}
		rs.Close()
		if !got.Equal(want) {
			t.Errorf("%s:\nstreamed %v\n    eval %v", text, got.Sorted(), want.Sorted())
		}
	}
}

func TestEvalStreamAskStopsAtFirstRow(t *testing.T) {
	// large graph: ASK over a streamed scan must not drain it
	var b strings.Builder
	b.WriteString("@prefix e: <http://e/> .\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "e:s%d e:p e:o%d .\n", i, i)
	}
	g := turtle.MustParseGraph(b.String())
	q := MustParse(`PREFIX e: <http://e/> ASK { ?s e:p ?o . VALUES (?s) { (e:s500) } }`)
	rs := q.EvalStream(context.Background(), g)
	if !rs.True {
		t.Error("ASK should be true")
	}
	if rs.Produced() != 1 {
		t.Errorf("ASK produced %d rows, want 1 (first row wins)", rs.Produced())
	}
	rs.Close()
}

func TestEvalStreamLimitReleasesScan(t *testing.T) {
	var b strings.Builder
	b.WriteString("@prefix e: <http://e/> .\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "e:s%d e:p e:o%d .\n", i, i)
	}
	g := turtle.MustParseGraph(b.String())
	q := MustParse(`PREFIX e: <http://e/> SELECT ?s ?o WHERE { ?s e:p ?o . VALUES (?x) { (e:unused) } } LIMIT 3`)
	// (the VALUES block joins nothing away: the scan streams through the
	// hash join's probe side up to the LIMIT)
	rs := q.EvalStream(context.Background(), g)
	rows := 0
	for {
		if _, ok := rs.Next(); !ok {
			break
		}
		rows++
	}
	if rows != 3 {
		t.Fatalf("LIMIT 3 streamed %d rows", rows)
	}
	if rs.Produced() >= 1000 {
		t.Errorf("LIMIT 3 still drained the scan: produced %d", rs.Produced())
	}
	rs.Close()
}

func streamRows(q *Query, g rdf.Source) []pattern.Tuple {
	rs := q.EvalStream(context.Background(), g)
	defer rs.Close()
	var rows []pattern.Tuple
	for {
		row, ok := rs.Next()
		if !ok {
			return rows
		}
		rows = append(rows, row)
	}
}

// wideGraph holds n subjects with one name each; every hundredth also has an
// age. Subjects are added in descending order, so neither insertion nor
// store order matches the sorted order.
func wideGraph(n int) *rdf.Graph {
	var b strings.Builder
	b.WriteString("@prefix e: <http://e/> .\n")
	for i := n - 1; i >= 0; i-- {
		fmt.Fprintf(&b, "e:s%d e:name \"n%d\" .\n", i, i)
		if i%100 == 0 {
			fmt.Fprintf(&b, "e:s%d e:age \"%d\" .\n", i, i%7)
		}
	}
	return turtle.MustParseGraph(b.String())
}

// Eval and EvalStream keep the same rows under LIMIT: the first k in plan
// order, which Eval returns sorted.
func TestLimitRowsAgree(t *testing.T) {
	g := wideGraph(200)
	for _, where := range []string{
		`{ ?s e:name ?n }`,
		`{ ?s e:name ?n . OPTIONAL { ?s e:age ?a } }`,
		`{ { ?s e:name ?n } UNION { ?s e:age ?n } }`,
		`{ ?s e:name ?n . VALUES (?s ?n) { (UNDEF "n7") (e:s3 UNDEF) (UNDEF UNDEF) } }`,
	} {
		for _, head := range []string{"SELECT ?s ?n", "SELECT DISTINCT ?n"} {
			q := MustParse(`PREFIX e: <http://e/> ` + head + ` WHERE ` + where + ` LIMIT 5`)
			got := q.Eval(g).Rows
			streamed := sortedRows(streamRows(q, g))
			if len(got) != 5 || !slices.EqualFunc(got, streamed, pattern.Tuple.Equal) {
				t.Errorf("%s:\n    Eval %v\n  stream %v", q, got, streamed)
			}
		}
	}
}

// visitCounter counts the triples the store hands to scans.
type visitCounter struct {
	rdf.Source
	visited atomic.Int64
}

func (c *visitCounter) count(fn func(rdf.Triple) bool) func(rdf.Triple) bool {
	return func(t rdf.Triple) bool {
		c.visited.Add(1)
		return fn(t)
	}
}

func (c *visitCounter) Match(s, p, o *rdf.Term, fn func(rdf.Triple) bool) {
	c.Source.Match(s, p, o, c.count(fn))
}

func (c *visitCounter) MatchShard(i int, s, p, o *rdf.Term, fn func(rdf.Triple) bool) {
	c.Source.MatchShard(i, s, p, o, c.count(fn))
}

// OPTIONAL and UNDEF-carrying VALUES stream like any other query: LIMIT 1
// stops the scan after a handful of rows instead of evaluating the whole
// query first.
func TestEvalStreamOptionalAndUndefStopEarly(t *testing.T) {
	const n = 2000
	g := wideGraph(n)
	for _, where := range []string{
		`{ ?s e:name ?n . OPTIONAL { ?s e:age ?a } }`,
		`{ ?s e:name ?n . VALUES (?s ?n) { (e:s3 UNDEF) (UNDEF UNDEF) } }`,
	} {
		q := MustParse(`PREFIX e: <http://e/> SELECT ?s ?n WHERE ` + where)
		full := len(q.Eval(g).Rows)
		if full < n {
			t.Fatalf("%s: %d rows, want at least %d", where, full, n)
		}
		q.Limit = 1
		src := &visitCounter{Source: g.Snapshot()}
		rs := q.EvalStream(context.Background(), src)
		if _, ok := rs.Next(); !ok {
			t.Fatalf("%s: no row", where)
		}
		rs.Close()
		if rs.Produced() > int64(full/10) {
			t.Errorf("%s: LIMIT 1 produced %d of %d rows", where, rs.Produced(), full)
		}
		if v := src.visited.Load(); v > int64(full/10) {
			t.Errorf("%s: LIMIT 1 visited %d triples for %d rows: the query was evaluated in full", where, v, full)
		}
	}
}
