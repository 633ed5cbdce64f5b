package relational

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses one SQL statement. Only SELECT exists: the database is
// written through typed calls (Insert, ReplaceRows), never through SQL.
func Parse(src string) (*SelectStmt, error) {
	toks, err := lexSQL(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	if !p.isKeyword("SELECT") {
		return nil, p.errorf("expected SELECT, found %q (SQL is read-only)", p.cur().text)
	}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if !p.atEOF() {
		return nil, p.errorf("trailing input after statement")
	}
	return stmt, nil
}

type parser struct {
	toks []token
	i    int
	src  string
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("relational: parse error near offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

// isKeyword reports whether the current token is the given keyword
// (case-insensitive identifier match).
func (p *parser) isKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

// acceptKeyword consumes the keyword if present.
func (p *parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %q", kw, p.cur().text)
	}
	return nil
}

// accept consumes the punctuation token if present.
func (p *parser) accept(punct string) bool {
	t := p.cur()
	if t.kind == tokPunct && t.text == punct {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(punct string) error {
	if !p.accept(punct) {
		return p.errorf("expected %q, found %q", punct, p.cur().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errorf("expected identifier, found %q", t.text)
	}
	p.i++
	return t.text, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	p.i++ // SELECT
	stmt := &SelectStmt{}
	stmt.Distinct = p.acceptKeyword("DISTINCT")

	for {
		se, err := p.parseSelectExpr()
		if err != nil {
			return nil, err
		}
		stmt.Exprs = append(stmt.Exprs, se)
		if p.accept(",") {
			continue
		}
		break
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	ref, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	stmt.From = ref

	for {
		left := false
		switch {
		case p.acceptKeyword("LEFT"):
			p.acceptKeyword("OUTER")
			left = true
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		case p.acceptKeyword("INNER"):
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		case p.acceptKeyword("JOIN"):
		default:
			goto afterJoins
		}
		{
			jt, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.Joins = append(stmt.Joins, JoinClause{Left: left, Table: jt, On: cond})
		}
	}
afterJoins:

	if p.acceptKeyword("WHERE") {
		if stmt.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if p.accept(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("HAVING") {
		if stmt.Having, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Expr: e}
			if p.acceptKeyword("DESC") {
				key.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, key)
			if p.accept(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		stmt.Limit, stmt.HasLimit = n, true
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		stmt.Offset, stmt.HasOffset = n, true
	}
	return stmt, nil
}

func (p *parser) parseInt() (int, error) {
	t := p.cur()
	if t.kind != tokNumber {
		return 0, p.errorf("expected number, found %q", t.text)
	}
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.errorf("expected integer, found %q", t.text)
	}
	p.i++
	return n, nil
}

func (p *parser) parseSelectExpr() (SelectExpr, error) {
	if p.accept("*") {
		return SelectExpr{}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectExpr{}, err
	}
	se := SelectExpr{Expr: e}
	if p.acceptKeyword("AS") {
		a, err := p.ident()
		if err != nil {
			return SelectExpr{}, err
		}
		se.Alias = a
	} else if t := p.cur(); t.kind == tokIdent && !p.isReservedHere() {
		// bare alias: SELECT x total FROM …
		se.Alias = t.text
		p.i++
	}
	return se, nil
}

// isReservedHere reports whether the current identifier is a clause keyword
// rather than a bare alias.
func (p *parser) isReservedHere() bool {
	for _, kw := range []string{"FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET", "JOIN", "LEFT", "INNER", "ON", "AS", "ASC", "DESC", "AND", "OR", "NOT"} {
		if p.isKeyword(kw) {
			return true
		}
	}
	return false
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name}
	if p.acceptKeyword("AS") {
		if ref.Alias, err = p.ident(); err != nil {
			return TableRef{}, err
		}
	} else if t := p.cur(); t.kind == tokIdent && !p.isReservedHere() {
		ref.Alias = t.text
		p.i++
	}
	return ref, nil
}

// Expression grammar (precedence climbing):
//
//	expr     := orExpr
//	orExpr   := andExpr (OR andExpr)*
//	andExpr  := notExpr (AND notExpr)*
//	notExpr  := NOT notExpr | cmpExpr
//	cmpExpr  := addExpr ((=|!=|<>|<|<=|>|>=|LIKE) addExpr
//	           | [NOT] IN (list) | IS [NOT] NULL)?
//	addExpr  := mulExpr ((+|-) mulExpr)*
//	mulExpr  := unary ((*|/) unary)*
//	unary    := - unary | primary
//	primary  := literal | ident[.ident] | func(args) | ( expr )
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		not := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{X: l, Not: not}, nil
	}
	// [NOT] IN (…)
	notIn := false
	if p.isKeyword("NOT") && p.i+1 < len(p.toks) && strings.EqualFold(p.toks[p.i+1].text, "IN") {
		p.i += 2
		notIn = true
	} else if p.acceptKeyword("IN") {
	} else {
		// comparison operators
		for _, op := range []string{"=", "!=", "<>", "<=", ">=", "<", ">"} {
			if p.accept(op) {
				r, err := p.parseAdd()
				if err != nil {
					return nil, err
				}
				if op == "<>" {
					op = "!="
				}
				return &Binary{Op: op, L: l, R: r}, nil
			}
		}
		if p.acceptKeyword("LIKE") {
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: "LIKE", L: l, R: r}, nil
		}
		return l, nil
	}
	// IN list
	if err := p.expect("("); err != nil {
		return nil, err
	}
	in := &InExpr{X: l, Not: notIn}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		in.List = append(in.List, e)
		if p.accept(",") {
			continue
		}
		break
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "+", L: l, R: r}
		case p.accept("-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "*", L: l, R: r}
		case p.accept("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "/", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.i++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return &Literal{Val: Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer %q", t.text)
		}
		return &Literal{Val: Int(n)}, nil
	case tokString:
		p.i++
		return &Literal{Val: Text(t.text)}, nil
	case tokPunct:
		if t.text == "(" {
			p.i++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokIdent:
		switch strings.ToUpper(t.text) {
		case "NULL":
			p.i++
			return &Literal{Val: Null()}, nil
		case "TRUE":
			p.i++
			return &Literal{Val: Bool(true)}, nil
		case "FALSE":
			p.i++
			return &Literal{Val: Bool(false)}, nil
		}
		name := t.text
		p.i++
		// function call
		if p.accept("(") {
			call := &Call{Name: strings.ToUpper(name)}
			if p.accept("*") {
				call.Star = true
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				return call, nil
			}
			if p.accept(")") {
				return call, nil
			}
			call.Distinct = p.acceptKeyword("DISTINCT")
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, e)
				if p.accept(",") {
					continue
				}
				break
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		// qualified column
		if p.accept(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Name: col}, nil
		}
		return &ColumnRef{Name: name}, nil
	}
	return nil, p.errorf("unexpected token %q in expression", t.text)
}
