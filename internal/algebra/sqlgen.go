package algebra

import (
	"fmt"
	"strings"
)

// ToSQL renders an algebra tree back to executable SQL in Perm's dialect.
// This powers the "rewritten SQL" pane of the Perm browser (Figure 4, marker
// 2): the provenance-rewritten algebra tree is decompiled so users can see —
// and themselves run — the relational query that computes provenance.
//
// The generated SQL nests one derived table per operator, assigning fresh
// correlation names (q1, q2, ...) and de-duplicated column names, so it is
// valid regardless of name collisions in the tree. Round-trip equivalence
// (generated SQL evaluates to the same rows) is covered by integration tests.
func ToSQL(op Op) string {
	g := &sqlGen{}
	text, _ := g.gen(op, nil)
	return text
}

type sqlGen struct{ n int }

func (g *sqlGen) fresh() string {
	g.n++
	return fmt.Sprintf("q%d", g.n)
}

// uniqueNames derives unique SQL column names from a schema.
func uniqueNames(sch Schema) []string {
	seen := make(map[string]int)
	out := make([]string, len(sch))
	for i, c := range sch {
		base := strings.ToLower(c.Name)
		if base == "" {
			base = fmt.Sprintf("c%d", i+1)
		}
		name := base
		for seen[name] > 0 {
			seen[base]++
			name = fmt.Sprintf("%s_%d", base, seen[base])
		}
		seen[name]++
		out[i] = name
	}
	return out
}

// gen returns the SQL for op and the unique column names of its result.
// outerCols maps OuterRef indices to SQL references of the enclosing query
// (for correlated subplans).
func (g *sqlGen) gen(op Op, outerCols []string) (string, []string) {
	outNames := uniqueNames(op.Schema())
	switch o := op.(type) {
	case *Scan:
		alias := g.fresh()
		items := make([]string, len(o.Sch))
		for i, c := range o.Sch {
			items[i] = fmt.Sprintf("%s.%s AS %s", alias, sqlIdent(c.Name), sqlIdent(outNames[i]))
		}
		return fmt.Sprintf("SELECT %s FROM %s AS %s",
			strings.Join(items, ", "), sqlIdent(o.Table), alias), outNames
	case *Values:
		if len(o.Rows) == 0 {
			return "SELECT NULL WHERE FALSE", outNames
		}
		var parts []string
		for _, row := range o.Rows {
			items := make([]string, 0, len(row)+1)
			if len(row) == 0 {
				items = append(items, "0 AS __dummy__")
			}
			for i, e := range row {
				items = append(items, fmt.Sprintf("%s AS %s", g.expr(e, nil, outerCols), sqlIdent(outNames[i])))
			}
			parts = append(parts, "SELECT "+strings.Join(items, ", "))
		}
		return strings.Join(parts, " UNION ALL "), outNames
	case *Project:
		child, cols := g.gen(o.Input, outerCols)
		alias := g.fresh()
		refs := qualify(alias, cols)
		items := make([]string, len(o.Exprs))
		for i, e := range o.Exprs {
			items[i] = fmt.Sprintf("%s AS %s", g.expr(e, refs, outerCols), sqlIdent(outNames[i]))
		}
		return fmt.Sprintf("SELECT %s FROM (%s) AS %s",
			strings.Join(items, ", "), child, alias), outNames
	case *BaseRel:
		return g.gen(o.Input, outerCols)
	case *ProvDone:
		return g.gen(o.Input, outerCols)
	case *Select:
		child, cols := g.gen(o.Input, outerCols)
		alias := g.fresh()
		refs := qualify(alias, cols)
		items := selectAll(refs, cols, outNames)
		return fmt.Sprintf("SELECT %s FROM (%s) AS %s WHERE %s",
			items, child, alias, g.expr(o.Cond, refs, outerCols)), outNames
	case *Join:
		lsql, lcols := g.gen(o.Left, outerCols)
		rsql, rcols := g.gen(o.Right, outerCols)
		la, ra := g.fresh(), g.fresh()
		refs := append(qualify(la, lcols), qualify(ra, rcols)...)
		kw := map[JoinKind]string{
			JoinInner: "JOIN", JoinLeft: "LEFT JOIN", JoinRight: "RIGHT JOIN",
			JoinFull: "FULL JOIN", JoinCross: "CROSS JOIN",
		}[o.Kind]
		on := ""
		if o.Kind == JoinCross {
			on = ""
		} else if o.Cond != nil {
			on = " ON " + g.expr(o.Cond, refs, outerCols)
		} else {
			on = " ON TRUE"
		}
		items := selectAll(refs, append(append([]string{}, lcols...), rcols...), outNames)
		return fmt.Sprintf("SELECT %s FROM (%s) AS %s %s (%s) AS %s%s",
			items, lsql, la, kw, rsql, ra, on), outNames
	case *Agg:
		child, cols := g.gen(o.Input, outerCols)
		alias := g.fresh()
		refs := qualify(alias, cols)
		var items, groups []string
		for i, ge := range o.GroupBy {
			t := g.expr(ge, refs, outerCols)
			items = append(items, fmt.Sprintf("%s AS %s", t, sqlIdent(outNames[i])))
			groups = append(groups, t)
		}
		for i, a := range o.Aggs {
			arg := "*"
			if a.Arg != nil {
				arg = g.expr(a.Arg, refs, outerCols)
			}
			if a.Distinct {
				arg = "DISTINCT " + arg
			}
			items = append(items, fmt.Sprintf("%s(%s) AS %s", a.Func, arg, sqlIdent(outNames[len(o.GroupBy)+i])))
		}
		out := fmt.Sprintf("SELECT %s FROM (%s) AS %s", strings.Join(items, ", "), child, alias)
		if len(groups) > 0 {
			out += " GROUP BY " + strings.Join(groups, ", ")
		}
		return out, outNames
	case *Distinct:
		child, cols := g.gen(o.Input, outerCols)
		alias := g.fresh()
		refs := qualify(alias, cols)
		return fmt.Sprintf("SELECT DISTINCT %s FROM (%s) AS %s",
			selectAll(refs, cols, outNames), child, alias), outNames
	case *SetOp:
		lsql, lcols := g.gen(o.Left, outerCols)
		rsql, rcols := g.gen(o.Right, outerCols)
		la, ra := g.fresh(), g.fresh()
		left := fmt.Sprintf("SELECT %s FROM (%s) AS %s", selectAll(qualify(la, lcols), lcols, outNames), lsql, la)
		right := fmt.Sprintf("SELECT %s FROM (%s) AS %s", selectAll(qualify(ra, rcols), rcols, outNames), rsql, ra)
		kw := map[SetOpKind]string{
			UnionAll: "UNION ALL", UnionDistinct: "UNION",
			IntersectAll: "INTERSECT ALL", IntersectDistinct: "INTERSECT",
			ExceptAll: "EXCEPT ALL", ExceptDistinct: "EXCEPT",
		}[o.Kind]
		return fmt.Sprintf("%s %s %s", left, kw, right), outNames
	case *Sort:
		child, cols := g.gen(o.Input, outerCols)
		alias := g.fresh()
		refs := qualify(alias, cols)
		keys := make([]string, len(o.Keys))
		for i, k := range o.Keys {
			keys[i] = g.expr(k.Expr, refs, outerCols)
			if k.Desc {
				keys[i] += " DESC"
			}
		}
		return fmt.Sprintf("SELECT %s FROM (%s) AS %s ORDER BY %s",
			selectAll(refs, cols, outNames), child, alias, strings.Join(keys, ", ")), outNames
	case *Limit:
		child, cols := g.gen(o.Input, outerCols)
		alias := g.fresh()
		refs := qualify(alias, cols)
		out := fmt.Sprintf("SELECT %s FROM (%s) AS %s", selectAll(refs, cols, outNames), child, alias)
		if o.Count >= 0 {
			out += fmt.Sprintf(" LIMIT %d", o.Count)
		}
		if o.Offset > 0 {
			out += fmt.Sprintf(" OFFSET %d", o.Offset)
		}
		return out, outNames
	}
	return fmt.Sprintf("/* cannot render %T */ SELECT NULL", op), outNames
}

// qualify produces "alias.col" references for each column name.
func qualify(alias string, cols []string) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = alias + "." + sqlIdent(c)
	}
	return out
}

// selectAll renders "ref AS out, ..." select items.
func selectAll(refs, _ []string, outNames []string) string {
	items := make([]string, len(refs))
	for i, r := range refs {
		items[i] = fmt.Sprintf("%s AS %s", r, sqlIdent(outNames[i]))
	}
	return strings.Join(items, ", ")
}

// expr renders an expression given the SQL references for input columns.
func (g *sqlGen) expr(e Expr, refs []string, outerCols []string) string {
	switch x := e.(type) {
	case *Const:
		return x.Val.SQLLiteral()
	case *Param:
		return "?"
	case *ColIdx:
		if x.Idx < len(refs) {
			return refs[x.Idx]
		}
		return fmt.Sprintf("/*bad col %d*/NULL", x.Idx)
	case *OuterRef:
		if x.Idx < len(outerCols) {
			return outerCols[x.Idx]
		}
		return fmt.Sprintf("/*bad outer %d*/NULL", x.Idx)
	case *Bin:
		return fmt.Sprintf("(%s %s %s)", g.expr(x.L, refs, outerCols), x.Op, g.expr(x.R, refs, outerCols))
	case *Not:
		return fmt.Sprintf("(NOT %s)", g.expr(x.E, refs, outerCols))
	case *Neg:
		return fmt.Sprintf("(-%s)", g.expr(x.E, refs, outerCols))
	case *IsNull:
		if x.Not {
			return fmt.Sprintf("(%s IS NOT NULL)", g.expr(x.E, refs, outerCols))
		}
		return fmt.Sprintf("(%s IS NULL)", g.expr(x.E, refs, outerCols))
	case *Func:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = g.expr(a, refs, outerCols)
		}
		return fmt.Sprintf("%s(%s)", x.Name, strings.Join(args, ", "))
	case *Case:
		var b strings.Builder
		b.WriteString("CASE")
		for _, w := range x.Whens {
			fmt.Fprintf(&b, " WHEN %s THEN %s", g.expr(w.Cond, refs, outerCols), g.expr(w.Result, refs, outerCols))
		}
		if x.Else != nil {
			fmt.Fprintf(&b, " ELSE %s", g.expr(x.Else, refs, outerCols))
		}
		b.WriteString(" END")
		return b.String()
	case *InList:
		items := make([]string, len(x.List))
		for i, a := range x.List {
			items[i] = g.expr(a, refs, outerCols)
		}
		not := ""
		if x.Neg {
			not = " NOT"
		}
		return fmt.Sprintf("(%s%s IN (%s))", g.expr(x.E, refs, outerCols), not, strings.Join(items, ", "))
	case *Like:
		not := ""
		if x.Neg {
			not = " NOT"
		}
		return fmt.Sprintf("(%s%s LIKE %s)", g.expr(x.E, refs, outerCols), not, g.expr(x.Pattern, refs, outerCols))
	case *Cast:
		return fmt.Sprintf("CAST(%s AS %s)", g.expr(x.E, refs, outerCols), x.To)
	case *Subplan:
		// Correlated subplans see the current refs as their outer columns.
		inner, innerCols := g.gen(x.Plan, refs)
		switch x.Mode {
		case ExistsSubplan:
			not := ""
			if x.Neg {
				not = "NOT "
			}
			return fmt.Sprintf("(%sEXISTS (%s))", not, inner)
		case InSubplan:
			not := ""
			if x.Neg {
				not = " NOT"
			}
			_ = innerCols
			return fmt.Sprintf("(%s%s IN (%s))", g.expr(x.Needle, refs, outerCols), not, inner)
		case AnySubplan:
			return fmt.Sprintf("(%s %s ANY (%s))", g.expr(x.Needle, refs, outerCols), x.CmpOp, inner)
		case AllSubplan:
			return fmt.Sprintf("(%s %s ALL (%s))", g.expr(x.Needle, refs, outerCols), x.CmpOp, inner)
		default:
			return fmt.Sprintf("((%s))", inner)
		}
	}
	return "/*unknown expr*/NULL"
}

// sqlIdent quotes identifiers that are not plain words.
func sqlIdent(s string) string {
	plain := s != ""
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c == '_':
		case c >= '0' && c <= '9' && i > 0:
		default:
			plain = false
		}
	}
	if plain && !sqlReserved[s] {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

var sqlReserved = map[string]bool{
	"select": true, "from": true, "where": true, "group": true, "order": true,
	"having": true, "limit": true, "offset": true, "union": true, "join": true,
	"on": true, "as": true, "and": true, "or": true, "not": true, "case": true,
	"when": true, "then": true, "else": true, "end": true, "left": true,
	"right": true, "full": true, "cross": true, "inner": true, "using": true,
	"intersect": true, "except": true, "distinct": true, "all": true,
	"provenance": true, "baserelation": true, "exists": true, "in": true,
	"like": true, "between": true, "is": true, "null": true, "true": true,
	"false": true, "count": true, "sum": true, "avg": true, "min": true, "max": true,
}
