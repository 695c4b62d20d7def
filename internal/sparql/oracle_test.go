package sparql

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/pattern"
	"repro/internal/rdf"
)

// TestEvalMatchesUCQOracle checks the evaluator on random nested group and
// UNION queries against an independent oracle: the union, over the query's
// UCQ decomposition (ToUCQ), of pattern.EvalNaive projected onto the
// answer variables. Rows are compared as bags (as sets under DISTINCT),
// for Eval and EvalStream alike.
func TestEvalMatchesUCQOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		q := randomUCQQuery(rng)
		ucq, err := q.ToUCQ()
		if err != nil {
			t.Logf("seed %d: %s: %v", seed, q, err)
			return false
		}
		var want []pattern.Tuple
		seen := make(map[string]bool)
		for _, d := range ucq {
			for _, mu := range pattern.EvalNaive(g, d.GP) {
				row := make(pattern.Tuple, len(d.Free))
				for i, v := range d.Free {
					row[i] = mu[v]
				}
				if q.Distinct {
					if seen[row.Key()] {
						continue
					}
					seen[row.Key()] = true
				}
				want = append(want, row)
			}
		}
		want = sortedRows(want)
		got := q.Eval(g).Rows
		streamed := sortedRows(streamRows(q, g))
		if !slices.EqualFunc(got, want, pattern.Tuple.Equal) || !slices.EqualFunc(streamed, want, pattern.Tuple.Equal) {
			t.Logf("seed %d: %s\n  oracle %v\n    Eval %v\n  stream %v", seed, q, want, got, streamed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

var (
	oracleNodes = []rdf.Term{rdf.IRI("http://e/n0"), rdf.IRI("http://e/n1"), rdf.IRI("http://e/n2"), rdf.IRI("http://e/n3")}
	oraclePreds = []rdf.Term{rdf.IRI("http://e/p0"), rdf.IRI("http://e/p1"), rdf.IRI("http://e/p2")}
	oracleVars  = []string{"a", "b", "c", "d"}
)

func randomGraph(rng *rand.Rand) *rdf.Graph {
	g := rdf.NewGraph()
	for i := 0; i < 16; i++ {
		g.Add(rdf.Triple{
			S: oracleNodes[rng.Intn(len(oracleNodes))],
			P: oraclePreds[rng.Intn(len(oraclePreds))],
			O: oracleNodes[rng.Intn(len(oracleNodes))],
		})
	}
	return g
}

// randomUCQQuery builds a random query in the UCQ fragment — groups nesting
// groups and UNIONs, no FILTER, OPTIONAL or VALUES — projecting the
// variables every disjunct binds.
func randomUCQQuery(rng *rand.Rand) *Query {
	var where Expr = randomGroup(rng, 2)
	if rng.Intn(3) == 0 {
		where = randomUnion(rng, 2)
	}
	bodies, err := flattenExpr(where)
	if err != nil {
		panic(err)
	}
	vars := bodies[0].Vars()
	for _, b := range bodies[1:] {
		vars = sharedVars(vars, b.Vars())
	}
	return &Query{Form: FormSelect, Distinct: rng.Intn(2) == 0, Vars: vars, Where: where}
}

func randomGroup(rng *rand.Rand, depth int) *Group {
	g := &Group{}
	for i := rng.Intn(3); i > 0; i-- {
		g.BGP = append(g.BGP, randomTriplePattern(rng))
	}
	if depth > 0 {
		for i := rng.Intn(3); i > 0; i-- {
			if rng.Intn(2) == 0 {
				g.Children = append(g.Children, randomGroup(rng, depth-1))
			} else {
				g.Children = append(g.Children, randomUnion(rng, depth-1))
			}
		}
	}
	return g
}

func randomUnion(rng *rand.Rand, depth int) *Union {
	u := &Union{}
	for i := 2 + rng.Intn(2); i > 0; i-- {
		u.Alternatives = append(u.Alternatives, randomGroup(rng, depth))
	}
	return u
}

func randomTriplePattern(rng *rand.Rand) pattern.TriplePattern {
	elem := func(consts []rdf.Term, varOdds int) pattern.Elem {
		if rng.Intn(10) < varOdds {
			return pattern.V(oracleVars[rng.Intn(len(oracleVars))])
		}
		return pattern.C(consts[rng.Intn(len(consts))])
	}
	return pattern.TP(elem(oracleNodes, 7), elem(oraclePreds, 2), elem(oracleNodes, 7))
}
