package gsql

import (
	"fmt"
	"strconv"
	"strings"
)

// expr is a parsed expression tree node. Nodes render canonically via
// exprString, which the planner uses to match select items against group-by
// expressions.
type expr interface {
	// String returns the canonical (lowercased, fully parenthesized) form.
	String() string
}

// numLit is a numeric literal (integer or float).
type numLit struct {
	v Value
}

func (n *numLit) String() string { return n.v.String() }

// strLit is a string literal.
type strLit struct {
	s string
}

// String quotes the literal as the lexer reads it back: an embedded quote is
// doubled, so the canonical form is a fixed point of parsing.
func (s *strLit) String() string { return "'" + strings.ReplaceAll(s.s, "'", "''") + "'" }

// boolLit is a boolean literal.
type boolLit struct {
	b bool
}

func (b *boolLit) String() string { return strconv.FormatBool(b.b) }

// colRef references a stream column by name.
type colRef struct {
	name string // lowercased
	idx  int    // resolved column index
	typ  Type
}

func (c *colRef) String() string { return c.name }

// binExpr is a binary operation: arithmetic (+ - * / %), comparison
// (= != < <= > >=) or logical (and, or).
type binExpr struct {
	op   string
	l, r expr
}

func (b *binExpr) String() string {
	return "(" + b.l.String() + " " + b.op + " " + b.r.String() + ")"
}

// unExpr is a unary operation: - or not.
type unExpr struct {
	op string
	e  expr
}

func (u *unExpr) String() string { return "(" + u.op + " " + u.e.String() + ")" }

// callExpr is a scalar function call.
type callExpr struct {
	name string // lowercased
	args []expr
}

func (c *callExpr) String() string {
	parts := make([]string, len(c.args))
	for i, a := range c.args {
		parts[i] = a.String()
	}
	return c.name + "(" + strings.Join(parts, ", ") + ")"
}

// aggExpr is an aggregate (builtin or UDAF) call; star marks count(*).
type aggExpr struct {
	name string // lowercased
	args []expr
	star bool
	slot int // assigned by the planner
}

func (a *aggExpr) String() string {
	if a.star {
		return a.name + "(*)"
	}
	parts := make([]string, len(a.args))
	for i, arg := range a.args {
		parts[i] = arg.String()
	}
	return a.name + "(" + strings.Join(parts, ", ") + ")"
}

// selectItem is one output expression with an optional alias.
type selectItem struct {
	e     expr
	alias string
}

// groupItem is one group-by expression with an optional alias.
type groupItem struct {
	e     expr
	alias string
}

// queryAST is a parsed query.
type queryAST struct {
	sel    []selectItem
	from   string
	where  expr // nil if absent
	group  []groupItem
	having expr // nil if absent
}

func (q *queryAST) String() string {
	var sb strings.Builder
	sb.WriteString("select ")
	for i, s := range q.sel {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(s.e.String())
		if s.alias != "" {
			fmt.Fprintf(&sb, " as %s", s.alias)
		}
	}
	fmt.Fprintf(&sb, " from %s", q.from)
	if q.where != nil {
		fmt.Fprintf(&sb, " where %s", q.where.String())
	}
	if len(q.group) > 0 {
		sb.WriteString(" group by ")
		for i, g := range q.group {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.e.String())
			if g.alias != "" {
				fmt.Fprintf(&sb, " as %s", g.alias)
			}
		}
	}
	if q.having != nil {
		fmt.Fprintf(&sb, " having %s", q.having.String())
	}
	return sb.String()
}
