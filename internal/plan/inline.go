package plan

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/pattern"
	"repro/internal/rdf"
)

// InlineBindings is the plan leaf of a SPARQL VALUES block: a literal
// relation over a declared variable list, written into the query text
// rather than discovered in the store. The schema is declared, so an
// all-UNDEF column still counts as a variable, and EXPLAIN shows the
// construct the query author — or the federation mediator rendering a probe
// batch — wrote. It is also the plan's leaf over any other in-memory
// relation.
type InlineBindings struct {
	// Names is the declared variable list, in declaration order.
	Names []string
	// Rows are the inline solutions; UNDEF slots are simply absent.
	Rows []pattern.Binding
}

// Vars implements Node: the declared variables, sorted.
func (n *InlineBindings) Vars() []string {
	out := append([]string(nil), n.Names...)
	sort.Strings(out)
	return out
}

// Open implements Node.
func (n *InlineBindings) Open(context.Context, rdf.Source) Iterator {
	return &sliceIter{rows: n.Rows}
}

func (n *InlineBindings) format(b *strings.Builder, depth int) {
	indent(b, depth)
	vars := make([]string, len(n.Names))
	for i, name := range n.Names {
		vars[i] = "?" + name
	}
	fmt.Fprintf(b, "InlineBindings[%s] rows=%d\n", strings.Join(vars, " "), len(n.Rows))
}
