// Package sparql implements the fragment of SPARQL used by the paper: the
// conjunctive graph-pattern core (SELECT / ASK over basic graph patterns,
// Definition 1 semantics), plus DISTINCT, UNION (needed to express the
// first-order rewritings of Section 4), simple equality FILTERs, and PREFIX
// handling. Queries translate losslessly to and from the internal
// graph-pattern representation of package pattern.
//
// The fragment also carries OPTIONAL, VALUES and LIMIT. Every query has one
// evaluator: lower translates the whole WHERE clause into a single
// internal/plan operator tree (BGPs through the planner, joins through
// HashJoin, OPTIONAL through LeftJoin, VALUES as InlineBindings, UNION as a
// parallel Union, FILTER as Filter). EvalStream opens that tree lazily;
// Eval drains EvalStream and sorts. Under LIMIT k both keep the first k
// rows in plan order, so a peer returns the same rows over every
// transport. Only Eval consults the answer cache.
package sparql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind int

const (
	tEOF     tokKind = iota
	tKeyword         // SELECT ASK WHERE DISTINCT UNION FILTER PREFIX a true false
	tVar             // ?x or $x (text excludes the sigil)
	tIRI             // <...> (text is the IRI)
	tPName           // prefix:local
	tLiteral         // "..." (text is unescaped)
	tLangTag         // @en
	tDTCaret         // ^^
	tNumber
	tLBrace
	tRBrace
	tLParen
	tRParen
	tDot
	tSemicolon
	tComma
	tEq
	tNeq
	tStar
)

func (k tokKind) String() string {
	switch k {
	case tEOF:
		return "end of query"
	case tKeyword:
		return "keyword"
	case tVar:
		return "variable"
	case tIRI:
		return "IRI"
	case tPName:
		return "prefixed name"
	case tLiteral:
		return "literal"
	case tLangTag:
		return "language tag"
	case tDTCaret:
		return "^^"
	case tNumber:
		return "number"
	case tLBrace:
		return "'{'"
	case tRBrace:
		return "'}'"
	case tLParen:
		return "'('"
	case tRParen:
		return "')'"
	case tDot:
		return "'.'"
	case tSemicolon:
		return "';'"
	case tComma:
		return "','"
	case tEq:
		return "'='"
	case tNeq:
		return "'!='"
	case tStar:
		return "'*'"
	default:
		return "token"
	}
}

type tok struct {
	kind tokKind
	text string
	line int
	col  int
}

type lexer struct {
	in   string
	pos  int
	line int
	col  int
}

func newLexer(in string) *lexer { return &lexer{in: in, line: 1, col: 1} }

func (l *lexer) errorf(format string, args ...any) error {
	return fmt.Errorf("sparql: line %d col %d: %s", l.line, l.col, fmt.Sprintf(format, args...))
}

func (l *lexer) peek() rune {
	if l.pos >= len(l.in) {
		return -1
	}
	r, _ := utf8.DecodeRuneInString(l.in[l.pos:])
	return r
}

func (l *lexer) advance() rune {
	if l.pos >= len(l.in) {
		return -1
	}
	r, w := utf8.DecodeRuneInString(l.in[l.pos:])
	l.pos += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *lexer) skip() {
	for {
		r := l.peek()
		if r == -1 {
			return
		}
		if unicode.IsSpace(r) {
			l.advance()
			continue
		}
		if r == '#' {
			for r != -1 && r != '\n' {
				r = l.advance()
			}
			continue
		}
		return
	}
}

var keywords = map[string]bool{
	"SELECT": true, "ASK": true, "WHERE": true, "DISTINCT": true,
	"UNION": true, "FILTER": true, "PREFIX": true, "BASE": true,
	"A": true, "TRUE": true, "FALSE": true, "REDUCED": true,
	"OPTIONAL": true, "VALUES": true, "UNDEF": true, "LIMIT": true,
}

func (l *lexer) next() (tok, error) {
	l.skip()
	line, col := l.line, l.col
	mk := func(k tokKind, text string) tok { return tok{kind: k, text: text, line: line, col: col} }
	r := l.peek()
	switch {
	case r == -1:
		return mk(tEOF, ""), nil
	case r == '{':
		l.advance()
		return mk(tLBrace, "{"), nil
	case r == '}':
		l.advance()
		return mk(tRBrace, "}"), nil
	case r == '(':
		l.advance()
		return mk(tLParen, "("), nil
	case r == ')':
		l.advance()
		return mk(tRParen, ")"), nil
	case r == '.':
		l.advance()
		return mk(tDot, "."), nil
	case r == ';':
		l.advance()
		return mk(tSemicolon, ";"), nil
	case r == ',':
		l.advance()
		return mk(tComma, ","), nil
	case r == '*':
		l.advance()
		return mk(tStar, "*"), nil
	case r == '=':
		l.advance()
		return mk(tEq, "="), nil
	case r == '!':
		l.advance()
		if l.peek() != '=' {
			return tok{}, l.errorf("expected '=' after '!'")
		}
		l.advance()
		return mk(tNeq, "!="), nil
	case r == '?' || r == '$':
		l.advance()
		var b strings.Builder
		for isNameChar(l.peek()) {
			b.WriteRune(l.advance())
		}
		if b.Len() == 0 {
			return tok{}, l.errorf("empty variable name")
		}
		return mk(tVar, b.String()), nil
	case r == '<':
		l.advance()
		var b strings.Builder
		for {
			c := l.advance()
			if c == -1 || c == '\n' {
				return tok{}, l.errorf("unterminated IRI")
			}
			if c == '>' {
				return mk(tIRI, b.String()), nil
			}
			b.WriteRune(c)
		}
	case r == '"' || r == '\'':
		quote := r
		l.advance()
		var b strings.Builder
		for {
			c := l.advance()
			if c == -1 || c == '\n' {
				return tok{}, l.errorf("unterminated string literal")
			}
			if c == quote {
				return mk(tLiteral, b.String()), nil
			}
			if c == '\\' {
				n := l.advance()
				switch n {
				case 't':
					b.WriteRune('\t')
				case 'n':
					b.WriteRune('\n')
				case 'r':
					b.WriteRune('\r')
				case '"':
					b.WriteRune('"')
				case '\'':
					b.WriteRune('\'')
				case '\\':
					b.WriteRune('\\')
				default:
					return tok{}, l.errorf("unknown escape \\%c", n)
				}
				continue
			}
			b.WriteRune(c)
		}
	case r == '@':
		l.advance()
		var b strings.Builder
		for isNameChar(l.peek()) || l.peek() == '-' {
			b.WriteRune(l.advance())
		}
		if b.Len() == 0 {
			return tok{}, l.errorf("empty language tag")
		}
		return mk(tLangTag, b.String()), nil
	case r == '^':
		l.advance()
		if l.peek() != '^' {
			return tok{}, l.errorf("expected '^^'")
		}
		l.advance()
		return mk(tDTCaret, "^^"), nil
	case r == '+' || r == '-' || unicode.IsDigit(r):
		var b strings.Builder
		b.WriteRune(l.advance())
		for unicode.IsDigit(l.peek()) || l.peek() == '.' {
			b.WriteRune(l.advance())
		}
		return mk(tNumber, b.String()), nil
	default:
		var b strings.Builder
		for isNameChar(l.peek()) || l.peek() == ':' {
			b.WriteRune(l.advance())
		}
		word := b.String()
		if word == "" {
			return tok{}, l.errorf("unexpected character %q", r)
		}
		if strings.Contains(word, ":") {
			return mk(tPName, word), nil
		}
		if keywords[strings.ToUpper(word)] {
			return mk(tKeyword, strings.ToUpper(word)), nil
		}
		return tok{}, l.errorf("unexpected word %q", word)
	}
}

func isNameChar(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
