// Package analyzer implements the semantic analysis stage of the Perm
// pipeline (Figure 3: "syntactic and semantic analysis, view unfolding"). It
// turns a parsed sql.SelectStmt into a resolved algebra.Op tree: names are
// bound to positional column references, views are unfolded at use sites,
// aggregation is normalized into Agg+Project, and nested subqueries become
// Subplan expressions (later de-correlated by the provenance rewriter).
//
// SQL-PLE handling: SELECT PROVENANCE blocks are materialized through the
// RewriteHook — the engine injects the provenance rewriter here, so that by
// the time analysis finishes the tree is fully executable and outer query
// blocks can resolve names against provenance attributes.
package analyzer

import (
	"fmt"
	"slices"
	"strings"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/sql"
	"perm/internal/value"
)

// maxViewDepth bounds view unfolding to catch recursive view definitions.
const maxViewDepth = 32

// ProvRequest describes one SELECT PROVENANCE block encountered during
// analysis; the engine's rewrite hook receives it and must return the
// provenance-rewritten tree.
type ProvRequest struct {
	Input        algebra.Op
	Contribution sql.ContributionSemantics
}

// RewriteHook materializes a provenance request into a rewritten tree.
type RewriteHook func(ProvRequest) (algebra.Op, error)

// Analyzer resolves statements against a catalog.
type Analyzer struct {
	Catalog *catalog.Catalog
	// Rewrite is invoked for each SELECT PROVENANCE block. When nil,
	// provenance queries are rejected (the engine always sets it).
	Rewrite RewriteHook
	// StripProvenance makes the analyzer ignore SELECT PROVENANCE markers,
	// producing the original (un-rewritten) tree; the Perm browser uses this
	// to display the original algebra tree next to the rewritten one.
	StripProvenance bool
	// Params carries the kind of each bound `?` placeholder (index order).
	// The engine sets it from the prepared statement's arguments; a
	// placeholder beyond its length — including any placeholder when no
	// arguments are bound, as in an interactively typed `?` — is an error.
	Params []value.Kind

	viewDepth int
}

// New returns an analyzer over the catalog.
func New(cat *catalog.Catalog) *Analyzer {
	return &Analyzer{Catalog: cat}
}

// AnalyzeSelect resolves a full query statement.
func (a *Analyzer) AnalyzeSelect(st *sql.SelectStmt) (algebra.Op, error) {
	return a.analyzeSelect(st, nil)
}

// Analyze resolves a query, or an INSERT, UPDATE or DELETE to the Modify
// that writes its rows.
func (a *Analyzer) Analyze(st sql.Statement) (algebra.Op, error) {
	switch x := st.(type) {
	case *sql.SelectStmt:
		return a.analyzeSelect(x, nil)
	case *sql.InsertStmt:
		return a.analyzeInsert(x)
	case *sql.UpdateStmt:
		return a.analyzeRewrite(algebra.Update, x.Table, x.Sets, x.Where)
	case *sql.DeleteStmt:
		return a.analyzeRewrite(algebra.Delete, x.Table, nil, x.Where)
	}
	return nil, fmt.Errorf("analyzer: %T is not a query or a write", st)
}

// AnalyzeExpr resolves a scalar expression over the given schema (tests and
// tools). The row layout is the schema itself.
func (a *Analyzer) AnalyzeExpr(e sql.Expr, sch algebra.Schema) (algebra.Expr, error) {
	sc := &scope{cols: sch}
	return a.analyzeExpr(e, sc, exprCtx{})
}

// --- scopes -------------------------------------------------------------------

// scope is a name-resolution environment: the current row layout plus an
// optional link to the enclosing query's scope (for correlated subqueries).
type scope struct {
	cols  algebra.Schema
	outer *scope
}

// resolve finds a column by (qualifier, name). It returns the index, whether
// the reference binds to the outer scope, and an error for misses/ambiguity.
func (s *scope) resolve(table, name string) (idx int, isOuter bool, err error) {
	found := -1
	for i, c := range s.cols {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if found >= 0 {
			return 0, false, fmt.Errorf("column reference %q is ambiguous", refName(table, name))
		}
		found = i
	}
	if found >= 0 {
		return found, false, nil
	}
	if s.outer != nil {
		idx, deeper, err := s.outer.resolve(table, name)
		if err != nil {
			return 0, false, err
		}
		if deeper {
			return 0, false, fmt.Errorf("column %q: references more than one level up are not supported", refName(table, name))
		}
		return idx, true, nil
	}
	return 0, false, fmt.Errorf("column %q does not exist", refName(table, name))
}

func refName(table, name string) string {
	if table != "" {
		return table + "." + name
	}
	return name
}

// exprCtx carries per-expression analysis context.
type exprCtx struct {
	// aggMode: resolving a post-aggregation expression — group expressions
	// and aggregate calls map to Agg output columns.
	aggMode bool
	// groupKeys maps the string form of a resolved pre-agg expression to its
	// Agg output index.
	groupKeys map[string]int
	// aggCalls collects aggregate calls; in aggMode they resolve to output
	// columns groupCount+position.
	aggs        *aggCollector
	groupCount  int
	preAggScope *scope
	// allowAggs: aggregate calls legal here (select list / HAVING / ORDER BY).
	allowAggs bool
}

// aggCollector deduplicates aggregate calls across select list and HAVING.
// Once frozen (after the Agg node is built), unknown aggregates are rejected.
type aggCollector struct {
	exprs  []algebra.AggExpr
	keys   map[string]int
	frozen bool
}

func (c *aggCollector) add(e algebra.AggExpr) int {
	k := e.String()
	if i, ok := c.keys[k]; ok {
		return i
	}
	if c.frozen {
		return -1
	}
	c.exprs = append(c.exprs, e)
	c.keys[k] = len(c.exprs) - 1
	return len(c.exprs) - 1
}

// --- SELECT -------------------------------------------------------------------

func (a *Analyzer) analyzeSelect(st *sql.SelectStmt, outer *scope) (algebra.Op, error) {
	op, sorted, err := a.analyzeBodyWithOrder(st, outer)
	if err != nil {
		return nil, err
	}
	if len(st.OrderBy) > 0 && !sorted {
		keys := make([]algebra.SortKey, len(st.OrderBy))
		outSch := op.Schema()
		outScope := &scope{cols: outSch, outer: outer}
		for i, o := range st.OrderBy {
			ke, err := a.resolveOrderKey(o.Expr, outSch, outScope)
			if err != nil {
				return nil, err
			}
			keys[i] = algebra.SortKey{Expr: ke, Desc: o.Desc}
		}
		op = &algebra.Sort{Input: op, Keys: keys}
	}
	if st.Limit != nil || st.Offset != nil {
		count := int64(-1)
		offset := int64(0)
		if st.Limit != nil {
			n, err := constInt(st.Limit)
			if err != nil {
				return nil, fmt.Errorf("LIMIT: %v", err)
			}
			count = n
		}
		if st.Offset != nil {
			n, err := constInt(st.Offset)
			if err != nil {
				return nil, fmt.Errorf("OFFSET: %v", err)
			}
			offset = n
		}
		op = &algebra.Limit{Input: op, Count: count, Offset: offset}
	}
	return op, nil
}

func constInt(e sql.Expr) (int64, error) {
	lit, ok := e.(*sql.Literal)
	if !ok || lit.Val.Kind() != value.KindInt {
		return 0, fmt.Errorf("expected an integer constant")
	}
	return lit.Val.Int(), nil
}

// resolveOrderKey resolves one ORDER BY key against an output schema:
// a positional constant or an expression over the output columns.
func (a *Analyzer) resolveOrderKey(e sql.Expr, outSch algebra.Schema, outScope *scope) (algebra.Expr, error) {
	if lit, ok := e.(*sql.Literal); ok && lit.Val.Kind() == value.KindInt {
		pos := int(lit.Val.Int())
		if pos < 1 || pos > len(outSch) {
			return nil, fmt.Errorf("ORDER BY position %d is out of range", pos)
		}
		return &algebra.ColIdx{Idx: pos - 1, Typ: outSch[pos-1].Type, Name: outSch[pos-1].Name}, nil
	}
	ke, err := a.analyzeExpr(e, outScope, exprCtx{})
	if err != nil {
		return nil, fmt.Errorf("ORDER BY: %v", err)
	}
	return ke, nil
}

// analyzeBodyWithOrder analyzes the statement's body. For a single SELECT
// core it hands the ORDER BY items down so keys can reference non-projected
// input columns (via hidden sort columns); sorted reports whether ordering
// was already applied.
func (a *Analyzer) analyzeBodyWithOrder(st *sql.SelectStmt, outer *scope) (algebra.Op, bool, error) {
	if core, ok := st.Body.(*sql.SelectCore); ok && len(st.OrderBy) > 0 {
		op, err := a.analyzeCore(core, outer, st.OrderBy)
		return op, true, err
	}
	op, err := a.analyzeBody(st.Body, outer)
	return op, false, err
}

func (a *Analyzer) analyzeBody(body sql.QueryBody, outer *scope) (algebra.Op, error) {
	switch b := body.(type) {
	case *sql.SelectCore:
		return a.analyzeCore(b, outer, nil)
	case *sql.SetOpBody:
		// SQL-PLE: SELECT PROVENANCE on the first branch of a set operation
		// requests provenance of the whole set operation (the paper's q1).
		if leftmost := leftmostCore(b); leftmost != nil && leftmost.Provenance && !a.StripProvenance {
			contribution := leftmost.Contribution
			leftmost.Provenance = false
			op, err := a.analyzeSetOp(b, outer)
			leftmost.Provenance = true
			if err != nil {
				return nil, err
			}
			if a.Rewrite == nil {
				return nil, fmt.Errorf("SELECT PROVENANCE is not available: no provenance rewriter configured")
			}
			rewritten, err := a.Rewrite(ProvRequest{Input: op, Contribution: contribution})
			if err != nil {
				return nil, err
			}
			return &algebra.ProvDone{Input: rewritten}, nil
		}
		return a.analyzeSetOp(b, outer)
	}
	return nil, fmt.Errorf("unknown query body %T", body)
}

// leftmostCore finds the leftmost SELECT core of a set-operation tree.
func leftmostCore(b *sql.SetOpBody) *sql.SelectCore {
	switch l := b.Left.(type) {
	case *sql.SelectCore:
		return l
	case *sql.SetOpBody:
		return leftmostCore(l)
	}
	return nil
}

func (a *Analyzer) analyzeSetOp(body sql.QueryBody, outer *scope) (algebra.Op, error) {
	switch b := body.(type) {
	case *sql.SelectCore:
		return a.analyzeCore(b, outer, nil)
	case *sql.SetOpBody:
		left, err := a.analyzeBody(b.Left, outer)
		if err != nil {
			return nil, err
		}
		right, err := a.analyzeBody(b.Right, outer)
		if err != nil {
			return nil, err
		}
		ls, rs := left.Schema(), right.Schema()
		if len(ls) != len(rs) {
			return nil, fmt.Errorf("each %s branch must have the same number of columns (%d vs %d)",
				b.Op, len(ls), len(rs))
		}
		var kind algebra.SetOpKind
		switch b.Op {
		case sql.Union:
			kind = algebra.UnionDistinct
			if b.All {
				kind = algebra.UnionAll
			}
		case sql.Intersect:
			kind = algebra.IntersectDistinct
			if b.All {
				kind = algebra.IntersectAll
			}
		case sql.Except:
			kind = algebra.ExceptDistinct
			if b.All {
				kind = algebra.ExceptAll
			}
		}
		return algebra.NewSetOp(kind, left, right), nil
	}
	return nil, fmt.Errorf("unknown query body %T", body)
}

// analyzeCore handles one SELECT block. When orderBy is non-nil the core
// also applies the ordering, resolving keys against the output columns first
// and falling back to the pre-projection scope via hidden sort columns
// (stripped after the sort).
func (a *Analyzer) analyzeCore(core *sql.SelectCore, outer *scope, orderBy []sql.OrderItem) (algebra.Op, error) {
	// FROM.
	var op algebra.Op
	if len(core.From) == 0 {
		op = &algebra.Values{Rows: [][]algebra.Expr{{}}, Sch: algebra.Schema{}}
	} else {
		var err error
		op, err = a.analyzeTableExpr(core.From[0], outer)
		if err != nil {
			return nil, err
		}
		for _, te := range core.From[1:] {
			right, err := a.analyzeTableExpr(te, outer)
			if err != nil {
				return nil, err
			}
			op = algebra.NewJoin(algebra.JoinCross, op, right, nil)
		}
	}
	sc := &scope{cols: op.Schema(), outer: outer}

	op, err := a.where(op, core.Where, sc)
	if err != nil {
		return nil, err
	}

	// Detect aggregation.
	hasAgg := len(core.GroupBy) > 0 || core.Having != nil
	if !hasAgg {
		for _, item := range core.Items {
			if item.Expr != nil && containsAggCall(item.Expr) {
				hasAgg = true
				break
			}
		}
	}

	var exprs []algebra.Expr
	var names []string
	var provCols []algebra.Column // provenance metadata carried through projection
	postCtx := exprCtx{}          // context for resolving hidden ORDER BY keys

	if hasAgg {
		var err error
		op, exprs, names, provCols, postCtx, err = a.analyzeAggregation(core, op, sc)
		if err != nil {
			return nil, err
		}
	} else {
		var err error
		exprs, names, provCols, err = a.analyzeSelectList(core.Items, sc, exprCtx{allowAggs: false})
		if err != nil {
			return nil, err
		}
	}

	// Resolve ORDER BY keys in three tiers: positional / visible output
	// columns now; pre-projection (hidden) columns now; provenance columns
	// after the rewrite.
	type orderKey struct {
		expr     algebra.Expr // resolved over the final output layout
		hidden   int          // >= 0: index into hidden sort expressions
		deferred sql.Expr     // non-nil: resolve after the provenance rewrite
		desc     bool
	}
	var keys []orderKey
	var hiddenExprs []algebra.Expr
	nVisible := len(exprs)
	if len(orderBy) > 0 {
		visSch := make(algebra.Schema, nVisible)
		for i, e := range exprs {
			visSch[i] = algebra.Column{Name: names[i], Type: e.Type()}
			if provCols != nil && i < len(provCols) {
				visSch[i].Table = provCols[i].Table
			}
		}
		visScope := &scope{cols: visSch, outer: outer}
		for _, o := range orderBy {
			k := orderKey{hidden: -1, desc: o.Desc}
			if lit, ok := o.Expr.(*sql.Literal); ok && lit.Val.Kind() == value.KindInt {
				pos := int(lit.Val.Int())
				if pos < 1 || pos > nVisible {
					return nil, fmt.Errorf("ORDER BY position %d is out of range", pos)
				}
				k.expr = &algebra.ColIdx{Idx: pos - 1, Typ: visSch[pos-1].Type, Name: visSch[pos-1].Name}
			} else if e, err := a.analyzeExpr(o.Expr, visScope, exprCtx{}); err == nil {
				k.expr = e
			} else if he, err2 := a.analyzeExpr(o.Expr, sc, hiddenCtx(postCtx, hasAgg)); err2 == nil {
				if core.Distinct {
					return nil, fmt.Errorf("for SELECT DISTINCT, ORDER BY expressions must appear in the select list")
				}
				k.hidden = len(hiddenExprs)
				hiddenExprs = append(hiddenExprs, he)
			} else if core.Provenance && !a.StripProvenance {
				k.deferred = o.Expr
			} else {
				return nil, fmt.Errorf("ORDER BY: %v", err)
			}
			keys = append(keys, k)
		}
	}
	for i, he := range hiddenExprs {
		exprs = append(exprs, he)
		names = append(names, fmt.Sprintf("__sort_%d", i+1))
	}

	proj := algebra.NewProject(op, exprs, names)
	// Propagate provenance metadata for pass-through columns.
	for i := range proj.Sch {
		if provCols != nil && i < len(provCols) {
			proj.Sch[i].IsProv = provCols[i].IsProv
			proj.Sch[i].ProvRel = provCols[i].ProvRel
			proj.Sch[i].ProvAttr = provCols[i].ProvAttr
			proj.Sch[i].Table = provCols[i].Table
		}
	}
	op = proj

	if core.Distinct {
		op = &algebra.Distinct{Input: op}
	}

	if core.Provenance && !a.StripProvenance {
		if a.Rewrite == nil {
			return nil, fmt.Errorf("SELECT PROVENANCE is not available: no provenance rewriter configured")
		}
		rewritten, err := a.Rewrite(ProvRequest{Input: op, Contribution: core.Contribution})
		if err != nil {
			return nil, err
		}
		op = &algebra.ProvDone{Input: rewritten}
	}

	if len(keys) > 0 {
		outSch := op.Schema()
		outScope := &scope{cols: outSch, outer: outer}
		sortKeys := make([]algebra.SortKey, len(keys))
		for i, k := range keys {
			switch {
			case k.deferred != nil:
				e, err := a.analyzeExpr(k.deferred, outScope, exprCtx{})
				if err != nil {
					return nil, fmt.Errorf("ORDER BY: %v", err)
				}
				sortKeys[i] = algebra.SortKey{Expr: e, Desc: k.desc}
			case k.hidden >= 0:
				idx := nVisible + k.hidden
				sortKeys[i] = algebra.SortKey{
					Expr: &algebra.ColIdx{Idx: idx, Typ: outSch[idx].Type, Name: outSch[idx].Name},
					Desc: k.desc,
				}
			default:
				sortKeys[i] = algebra.SortKey{Expr: k.expr, Desc: k.desc}
			}
		}
		op = &algebra.Sort{Input: op, Keys: sortKeys}
	}

	// Strip hidden sort columns, keeping visible columns and (post-rewrite)
	// provenance columns.
	if len(hiddenExprs) > 0 {
		sch := op.Schema()
		var keep []int
		for i := range sch {
			if i < nVisible || sch[i].IsProv {
				keep = append(keep, i)
			}
		}
		stripExprs := make([]algebra.Expr, len(keep))
		stripNames := make([]string, len(keep))
		for j, i := range keep {
			stripExprs[j] = &algebra.ColIdx{Idx: i, Typ: sch[i].Type, Name: sch[i].Name}
			stripNames[j] = sch[i].Name
		}
		strip := algebra.NewProject(op, stripExprs, stripNames)
		for j, i := range keep {
			strip.Sch[j] = sch[i]
		}
		op = strip
	}
	return op, nil
}

// hiddenCtx prepares the expression context for hidden ORDER BY keys: in
// aggregate queries keys resolve against the aggregation output (frozen —
// no new aggregates may be introduced at this point).
func hiddenCtx(postCtx exprCtx, hasAgg bool) exprCtx {
	if !hasAgg {
		return exprCtx{}
	}
	ctx := postCtx
	ctx.allowAggs = true
	if ctx.aggs != nil {
		ctx.aggs.frozen = true
	}
	return ctx
}

// wantBool checks a predicate's type.
func wantBool(e algebra.Expr, clause string) error {
	if t := e.Type(); t != value.KindBool && t != value.KindNull {
		return fmt.Errorf("%s condition must be boolean, got %s", clause, t)
	}
	return nil
}

// analyzeSelectList expands stars and analyzes each item. It returns the
// projection expressions, output names, and per-output provenance metadata
// (for pass-through column references).
func (a *Analyzer) analyzeSelectList(items []sql.SelectItem, sc *scope, ctx exprCtx) ([]algebra.Expr, []string, []algebra.Column, error) {
	var exprs []algebra.Expr
	var names []string
	var meta []algebra.Column
	for _, item := range items {
		if item.Star {
			matched := false
			for i, c := range sc.cols {
				if item.TableStar != "" && !strings.EqualFold(c.Table, item.TableStar) {
					continue
				}
				matched = true
				exprs = append(exprs, &algebra.ColIdx{Idx: i, Typ: c.Type, Name: c.Name})
				names = append(names, c.Name)
				meta = append(meta, c)
			}
			if !matched {
				if item.TableStar != "" {
					return nil, nil, nil, fmt.Errorf("relation %q in star expansion not found", item.TableStar)
				}
				return nil, nil, nil, fmt.Errorf("SELECT * with no FROM columns")
			}
			continue
		}
		e, err := a.analyzeExpr(item.Expr, sc, withAggs(ctx))
		if err != nil {
			return nil, nil, nil, err
		}
		exprs = append(exprs, e)
		name := item.Alias
		var m algebra.Column
		if cr, ok := item.Expr.(*sql.ColRef); ok {
			if name == "" {
				name = cr.Name
			}
			// Pass-through column: carry qualifier + provenance metadata.
			if ci, ok := e.(*algebra.ColIdx); ok && ci.Idx < len(sc.cols) {
				m = sc.cols[ci.Idx]
				if item.Alias != "" {
					m.Name = item.Alias
				}
			}
		}
		if name == "" {
			name = deriveName(item.Expr)
		}
		m.Name = name
		m.Type = e.Type()
		names = append(names, name)
		meta = append(meta, m)
	}
	return exprs, names, meta, nil
}

func withAggs(ctx exprCtx) exprCtx {
	ctx.allowAggs = ctx.aggMode
	return ctx
}

// deriveName picks an output column name for an unaliased expression.
func deriveName(e sql.Expr) string {
	switch x := e.(type) {
	case *sql.ColRef:
		return x.Name
	case *sql.FuncCall:
		return x.Name
	case *sql.CaseExpr:
		return "case"
	case *sql.CastExpr:
		return deriveName(x.E)
	case *sql.SubqueryExpr:
		return "subquery"
	}
	return "column"
}

// containsAggCall reports whether the AST expression contains an aggregate
// function call (not inside a nested subquery).
func containsAggCall(e sql.Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *sql.FuncCall:
		if isAggName(x.Name) {
			return true
		}
		for _, arg := range x.Args {
			if containsAggCall(arg) {
				return true
			}
		}
		return false
	case *sql.BinExpr:
		return containsAggCall(x.L) || containsAggCall(x.R)
	case *sql.UnaryExpr:
		return containsAggCall(x.E)
	case *sql.IsNullExpr:
		return containsAggCall(x.E)
	case *sql.CaseExpr:
		if containsAggCall(x.Operand) || containsAggCall(x.Else) {
			return true
		}
		for _, w := range x.Whens {
			if containsAggCall(w.Cond) || containsAggCall(w.Result) {
				return true
			}
		}
		return false
	case *sql.InExpr:
		if containsAggCall(x.E) {
			return true
		}
		for _, it := range x.List {
			if containsAggCall(it) {
				return true
			}
		}
		return false
	case *sql.BetweenExpr:
		return containsAggCall(x.E) || containsAggCall(x.Lo) || containsAggCall(x.Hi)
	case *sql.QuantifiedExpr:
		return containsAggCall(x.E)
	case *sql.LikeExpr:
		return containsAggCall(x.E) || containsAggCall(x.Pattern)
	case *sql.CastExpr:
		return containsAggCall(x.E)
	}
	return false
}

func isAggName(name string) bool {
	switch name {
	case "count", "sum", "avg", "min", "max":
		return true
	}
	return false
}

// analyzeAggregation builds the Agg node and returns the post-aggregation
// projection pieces plus the expression context (for late ORDER BY keys).
func (a *Analyzer) analyzeAggregation(core *sql.SelectCore, input algebra.Op, sc *scope) (algebra.Op, []algebra.Expr, []string, []algebra.Column, exprCtx, error) {
	groupKeys := make(map[string]int)
	var groupExprs []algebra.Expr
	var groupNames []string
	var groupMeta []algebra.Column
	for _, ge := range core.GroupBy {
		// GROUP BY may reference select-list aliases or positions.
		resolved := ge
		if lit, ok := ge.(*sql.Literal); ok && lit.Val.Kind() == value.KindInt {
			pos := int(lit.Val.Int())
			if pos < 1 || pos > len(core.Items) || core.Items[pos-1].Star {
				return nil, nil, nil, nil, exprCtx{}, fmt.Errorf("GROUP BY position %d is not a valid select item", pos)
			}
			resolved = core.Items[pos-1].Expr
		} else if cr, ok := ge.(*sql.ColRef); ok && cr.Table == "" {
			// Try alias resolution when the bare name is not an input column.
			if _, _, err := sc.resolve("", cr.Name); err != nil {
				for _, item := range core.Items {
					if item.Alias != "" && strings.EqualFold(item.Alias, cr.Name) {
						resolved = item.Expr
						break
					}
				}
			}
		}
		e, err := a.analyzeExpr(resolved, sc, exprCtx{})
		if err != nil {
			return nil, nil, nil, nil, exprCtx{}, fmt.Errorf("GROUP BY: %v", err)
		}
		key := e.String()
		if _, dup := groupKeys[key]; dup {
			continue
		}
		groupKeys[key] = len(groupExprs)
		groupExprs = append(groupExprs, e)
		var m algebra.Column
		name := fmt.Sprintf("g%d", len(groupExprs))
		if ci, ok := e.(*algebra.ColIdx); ok && ci.Idx < len(sc.cols) {
			m = sc.cols[ci.Idx]
			name = m.Name
		}
		groupNames = append(groupNames, name)
		m.Name = name
		m.Type = e.Type()
		groupMeta = append(groupMeta, m)
	}

	aggs := &aggCollector{keys: make(map[string]int)}
	ctx := exprCtx{
		aggMode:     true,
		groupKeys:   groupKeys,
		aggs:        aggs,
		groupCount:  len(groupExprs),
		preAggScope: sc,
		allowAggs:   true,
	}

	// Pre-pass: analyze select items and HAVING once to collect aggregates,
	// then build the Agg node, then the collected indices are stable.
	exprs, names, _, err := a.analyzeSelectList(core.Items, sc, ctx)
	if err != nil {
		return nil, nil, nil, nil, exprCtx{}, err
	}
	var having algebra.Expr
	if core.Having != nil {
		having, err = a.analyzeExpr(core.Having, sc, ctx)
		if err != nil {
			return nil, nil, nil, nil, exprCtx{}, fmt.Errorf("HAVING: %v", err)
		}
		if err := wantBool(having, "HAVING"); err != nil {
			return nil, nil, nil, nil, exprCtx{}, err
		}
	}

	aggNames := make([]string, len(aggs.exprs))
	for i, ae := range aggs.exprs {
		aggNames[i] = string(ae.Func)
	}
	aggOp := algebra.NewAgg(input, groupExprs, aggs.exprs, groupNames, aggNames)
	// Carry qualifiers onto group output columns so HAVING/ORDER BY can
	// resolve qualified names.
	for i := range groupMeta {
		aggOp.Sch[i].Table = groupMeta[i].Table
		aggOp.Sch[i].IsProv = groupMeta[i].IsProv
		aggOp.Sch[i].ProvRel = groupMeta[i].ProvRel
		aggOp.Sch[i].ProvAttr = groupMeta[i].ProvAttr
	}

	var op algebra.Op = aggOp
	if having != nil {
		op = &algebra.Select{Input: op, Cond: having}
	}

	// Output metadata: group columns keep provenance/qualifier info.
	meta := make([]algebra.Column, len(exprs))
	for i, e := range exprs {
		var m algebra.Column
		if ci, ok := e.(*algebra.ColIdx); ok && ci.Idx < len(aggOp.Sch) {
			m = aggOp.Sch[ci.Idx]
		}
		m.Name = names[i]
		m.Type = e.Type()
		meta[i] = m
	}
	return op, exprs, names, meta, ctx, nil
}

// --- INSERT, UPDATE, DELETE ---------------------------------------------------------

// writeTable resolves the table a write names, and its columns.
func (a *Analyzer) writeTable(name string) (*catalog.TableDef, algebra.Schema, error) {
	def := a.Catalog.Table(name)
	if def == nil {
		return nil, nil, fmt.Errorf("table %q does not exist", name)
	}
	sch := make(algebra.Schema, len(def.Columns), len(def.Columns)+1)
	for i, c := range def.Columns {
		sch[i] = algebra.Column{Name: c.Name, Table: def.Name, Type: c.Type}
	}
	return def, sch, nil
}

// analyzeInsert resolves an INSERT: its VALUES rows or its query, under a
// projection that spreads their columns over the table's full width, with
// NULL for the columns the statement does not name.
func (a *Analyzer) analyzeInsert(ins *sql.InsertStmt) (algebra.Op, error) {
	def, sch, err := a.writeTable(ins.Table)
	if err != nil {
		return nil, err
	}
	var target []int // target[j] is the table column input column j fills
	if len(ins.Columns) == 0 {
		for i := range sch {
			target = append(target, i)
		}
	}
	for _, name := range ins.Columns {
		idx := def.ColumnIndex(name)
		if idx < 0 {
			return nil, fmt.Errorf("column %q of table %q does not exist", name, ins.Table)
		}
		if slices.Contains(target, idx) {
			return nil, fmt.Errorf("column %q specified more than once", name)
		}
		target = append(target, idx)
	}
	var input algebra.Op
	if ins.Select != nil {
		if input, err = a.analyzeSelect(ins.Select, nil); err != nil {
			return nil, err
		}
		if n := len(input.Schema()); n != len(target) {
			return nil, fmt.Errorf("INSERT expects %d columns, query returns %d", len(target), n)
		}
	} else {
		vals := &algebra.Values{}
		for _, idx := range target {
			vals.Sch = append(vals.Sch, algebra.Column{Name: sch[idx].Name, Type: sch[idx].Type})
		}
		for i, row := range ins.Rows {
			if len(row) != len(target) {
				return nil, fmt.Errorf("row %d has %d values, expected %d", i+1, len(row), len(target))
			}
			exprs := make([]algebra.Expr, len(row))
			for j, e := range row {
				if exprs[j], err = a.analyzeExpr(e, &scope{}, exprCtx{}); err != nil {
					return nil, err
				}
			}
			vals.Rows = append(vals.Rows, exprs)
		}
		input = vals
	}
	in := input.Schema()
	exprs := make([]algebra.Expr, len(sch))
	for i := range exprs {
		exprs[i] = algebra.NewNull()
	}
	for j, idx := range target {
		exprs[idx] = &algebra.ColIdx{Idx: j, Typ: in[j].Type, Name: in[j].Name}
	}
	return &algebra.Modify{Table: def.Name, Kind: algebra.Insert, Input: algebra.NewProject(input, exprs, sch.Names())}, nil
}

// analyzeRewrite resolves an UPDATE or a DELETE: a RowID scan of the table,
// filtered by WHERE and, for an UPDATE, projected to the new row image and
// the row id.
func (a *Analyzer) analyzeRewrite(kind algebra.ModifyKind, table string, sets []sql.UpdateSet, where sql.Expr) (algebra.Op, error) {
	def, sch, err := a.writeTable(table)
	if err != nil {
		return nil, err
	}
	sc := &scope{cols: sch} // the row id is not a column to name
	sch = append(sch, algebra.Column{Name: "rowid", Type: value.KindInt})
	op, err := a.where(&algebra.Scan{Table: def.Name, Alias: def.Name, Sch: sch, RowID: true}, where, sc)
	if err != nil {
		return nil, err
	}
	if kind == algebra.Update {
		exprs := algebra.IdentityExprs(sch)
		for k, set := range sets {
			idx := def.ColumnIndex(set.Column)
			if idx < 0 {
				return nil, fmt.Errorf("column %q of table %q does not exist", set.Column, table)
			}
			if slices.ContainsFunc(sets[:k], func(o sql.UpdateSet) bool { return def.ColumnIndex(o.Column) == idx }) {
				return nil, fmt.Errorf("multiple assignments to same column %q", set.Column)
			}
			if exprs[idx], err = a.analyzeExpr(set.Expr, sc, exprCtx{}); err != nil {
				return nil, err
			}
		}
		op = algebra.NewProject(op, exprs, sch.Names())
	}
	return &algebra.Modify{Table: def.Name, Kind: kind, Input: op}, nil
}

// where filters op by a WHERE condition resolved in sc and checked to be a
// boolean; with no condition it returns op.
func (a *Analyzer) where(op algebra.Op, e sql.Expr, sc *scope) (algebra.Op, error) {
	if e == nil {
		return op, nil
	}
	cond, err := a.analyzeExpr(e, sc, exprCtx{})
	if err != nil {
		return nil, fmt.Errorf("WHERE: %v", err)
	}
	if err := wantBool(cond, "WHERE"); err != nil {
		return nil, err
	}
	return &algebra.Select{Input: op, Cond: cond}, nil
}

// --- FROM items -----------------------------------------------------------------

func (a *Analyzer) analyzeTableExpr(te sql.TableExpr, outer *scope) (algebra.Op, error) {
	switch t := te.(type) {
	case *sql.TableRef:
		return a.analyzeTableRef(t, outer)
	case *sql.SubqueryRef:
		alias := t.Alias
		if alias == "" {
			alias = "subquery"
		}
		sub, err := a.analyzeSelect(t.Select, outer)
		if err != nil {
			return nil, err
		}
		op := relabel(sub, alias)
		return a.applyProvSpec(op, alias, t.Prov)
	case *sql.JoinExpr:
		left, err := a.analyzeTableExpr(t.Left, outer)
		if err != nil {
			return nil, err
		}
		right, err := a.analyzeTableExpr(t.Right, outer)
		if err != nil {
			return nil, err
		}
		var kind algebra.JoinKind
		switch t.Kind {
		case sql.InnerJoin:
			kind = algebra.JoinInner
		case sql.LeftJoin:
			kind = algebra.JoinLeft
		case sql.RightJoin:
			kind = algebra.JoinRight
		case sql.FullJoin:
			kind = algebra.JoinFull
		case sql.CrossJoin:
			kind = algebra.JoinCross
		}
		join := algebra.NewJoin(kind, left, right, nil)
		if len(t.Using) > 0 {
			ls, rs := left.Schema(), right.Schema()
			var conds []algebra.Expr
			for _, u := range t.Using {
				li := indexOf(ls, u)
				ri := indexOf(rs, u)
				if li < 0 || ri < 0 {
					return nil, fmt.Errorf("USING column %q must exist on both join sides", u)
				}
				conds = append(conds, &algebra.Bin{
					Op: sql.OpEq,
					L:  &algebra.ColIdx{Idx: li, Typ: ls[li].Type, Name: ls[li].Name},
					R:  &algebra.ColIdx{Idx: len(ls) + ri, Typ: rs[ri].Type, Name: rs[ri].Name},
				})
			}
			join.Cond = algebra.AndAll(conds)
		} else if t.On != nil {
			sc := &scope{cols: join.Sch, outer: outer}
			cond, err := a.analyzeExpr(t.On, sc, exprCtx{})
			if err != nil {
				return nil, fmt.Errorf("JOIN ON: %v", err)
			}
			if err := wantBool(cond, "JOIN ON"); err != nil {
				return nil, err
			}
			join.Cond = cond
		} else if kind != algebra.JoinCross {
			return nil, fmt.Errorf("JOIN requires an ON or USING clause")
		}
		return join, nil
	}
	return nil, fmt.Errorf("unknown FROM item %T", te)
}

func indexOf(sch algebra.Schema, name string) int {
	for i, c := range sch {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

func (a *Analyzer) analyzeTableRef(t *sql.TableRef, outer *scope) (algebra.Op, error) {
	alias := t.Alias
	if alias == "" {
		alias = t.Name
	}
	if def := a.Catalog.Table(t.Name); def != nil {
		sch := make(algebra.Schema, len(def.Columns))
		for i, c := range def.Columns {
			sch[i] = algebra.Column{Name: c.Name, Table: alias, Type: c.Type}
		}
		var op algebra.Op = &algebra.Scan{Table: def.Name, Alias: alias, Sch: sch}
		return a.applyProvSpec(op, alias, t.Prov)
	}
	if view := a.Catalog.View(t.Name); view != nil {
		if a.viewDepth >= maxViewDepth {
			return nil, fmt.Errorf("view nesting exceeds %d levels (recursive view %q?)", maxViewDepth, t.Name)
		}
		st, err := sql.Parse(view.Text)
		if err != nil {
			return nil, fmt.Errorf("stored view %q is invalid: %v", view.Name, err)
		}
		sel, ok := st.(*sql.SelectStmt)
		if !ok {
			return nil, fmt.Errorf("stored view %q is not a query", view.Name)
		}
		a.viewDepth++
		sub, err := a.analyzeSelect(sel, nil)
		a.viewDepth--
		if err != nil {
			return nil, fmt.Errorf("view %q: %v", view.Name, err)
		}
		op := relabel(sub, alias)
		return a.applyProvSpec(op, alias, t.Prov)
	}
	return nil, fmt.Errorf("relation %q does not exist", t.Name)
}

// applyProvSpec applies SQL-PLE FROM-item annotations.
func (a *Analyzer) applyProvSpec(op algebra.Op, alias string, spec sql.ProvSpec) (algebra.Op, error) {
	if spec.HasProvAttrs {
		sch := op.Schema()
		flag := make(map[int]bool)
		for _, attr := range spec.ProvAttrs {
			idx := indexOf(sch, attr)
			if idx < 0 {
				return nil, fmt.Errorf("PROVENANCE attribute %q does not exist in %q", attr, alias)
			}
			flag[idx] = true
		}
		// Re-label the flagged columns as external provenance attributes and
		// mark the item as provenance-complete so the rewriter stops here.
		proj := algebra.NewProject(op, algebra.IdentityExprs(sch), sch.Names())
		for i := range proj.Sch {
			proj.Sch[i] = sch[i]
			if flag[i] {
				proj.Sch[i].IsProv = true
				proj.Sch[i].ProvRel = alias
				proj.Sch[i].ProvAttr = sch[i].Name
			}
		}
		op = &algebra.ProvDone{Input: proj}
	}
	if spec.BaseRelation {
		op = &algebra.BaseRel{Input: op, RelName: alias}
	}
	return op, nil
}

// relabel wraps op in an identity projection that re-qualifies every output
// column with the given correlation name, preserving provenance metadata.
func relabel(op algebra.Op, alias string) algebra.Op {
	sch := op.Schema()
	proj := algebra.NewProject(op, algebra.IdentityExprs(sch), sch.Names())
	for i := range proj.Sch {
		proj.Sch[i] = sch[i]
		proj.Sch[i].Table = alias
	}
	return proj
}

// --- expressions ------------------------------------------------------------------

func (a *Analyzer) analyzeExpr(e sql.Expr, sc *scope, ctx exprCtx) (algebra.Expr, error) {
	// In aggregation mode, a whole sub-expression that matches a group
	// expression resolves to the Agg output column.
	if ctx.aggMode && ctx.preAggScope != nil {
		if resolved, ok := a.tryGroupMatch(e, sc, ctx); ok {
			return resolved, nil
		}
	}
	switch x := e.(type) {
	case *sql.Literal:
		return &algebra.Const{Val: x.Val}, nil
	case *sql.Placeholder:
		if x.Index < 0 || x.Index >= len(a.Params) {
			return nil, fmt.Errorf("parameter $%d requires a bound value (%d bound)", x.Index+1, len(a.Params))
		}
		return &algebra.Param{Index: x.Index, Typ: a.Params[x.Index]}, nil
	case *sql.ColRef:
		if ctx.aggMode {
			return nil, fmt.Errorf("column %q must appear in the GROUP BY clause or be used in an aggregate function",
				refName(x.Table, x.Name))
		}
		idx, isOuter, err := sc.resolve(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		var col algebra.Column
		if isOuter {
			col = sc.outer.cols[idx]
			return &algebra.OuterRef{Idx: idx, Typ: col.Type, Name: col.Name}, nil
		}
		col = sc.cols[idx]
		return &algebra.ColIdx{Idx: idx, Typ: col.Type, Name: col.Name}, nil
	case *sql.BinExpr:
		l, err := a.analyzeExpr(x.L, sc, ctx)
		if err != nil {
			return nil, err
		}
		r, err := a.analyzeExpr(x.R, sc, ctx)
		if err != nil {
			return nil, err
		}
		return &algebra.Bin{Op: x.Op, L: l, R: r}, nil
	case *sql.UnaryExpr:
		inner, err := a.analyzeExpr(x.E, sc, ctx)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "not":
			return &algebra.Not{E: inner}, nil
		case "-":
			return &algebra.Neg{E: inner}, nil
		default:
			return inner, nil
		}
	case *sql.IsNullExpr:
		inner, err := a.analyzeExpr(x.E, sc, ctx)
		if err != nil {
			return nil, err
		}
		return &algebra.IsNull{E: inner, Not: x.Not}, nil
	case *sql.FuncCall:
		return a.analyzeFunc(x, sc, ctx)
	case *sql.CaseExpr:
		return a.analyzeCase(x, sc, ctx)
	case *sql.InExpr:
		if x.Subquery != nil {
			plan, correlated, err := a.analyzeSubquery(x.Subquery, sc)
			if err != nil {
				return nil, err
			}
			if len(plan.Schema()) != 1 {
				return nil, fmt.Errorf("IN subquery must return exactly one column")
			}
			needle, err := a.analyzeExpr(x.E, sc, ctx)
			if err != nil {
				return nil, err
			}
			return &algebra.Subplan{Mode: algebra.InSubplan, Plan: plan, Needle: needle,
				Neg: x.Not, Correlated: correlated}, nil
		}
		inner, err := a.analyzeExpr(x.E, sc, ctx)
		if err != nil {
			return nil, err
		}
		list := make([]algebra.Expr, len(x.List))
		for i, it := range x.List {
			le, err := a.analyzeExpr(it, sc, ctx)
			if err != nil {
				return nil, err
			}
			list[i] = le
		}
		return &algebra.InList{E: inner, List: list, Neg: x.Not}, nil
	case *sql.ExistsExpr:
		plan, correlated, err := a.analyzeSubquery(x.Subquery, sc)
		if err != nil {
			return nil, err
		}
		return &algebra.Subplan{Mode: algebra.ExistsSubplan, Plan: plan, Neg: x.Not,
			Correlated: correlated}, nil
	case *sql.SubqueryExpr:
		plan, correlated, err := a.analyzeSubquery(x.Select, sc)
		if err != nil {
			return nil, err
		}
		if len(plan.Schema()) != 1 {
			return nil, fmt.Errorf("scalar subquery must return exactly one column")
		}
		return &algebra.Subplan{Mode: algebra.ScalarSubplan, Plan: plan, Correlated: correlated}, nil
	case *sql.QuantifiedExpr:
		plan, correlated, err := a.analyzeSubquery(x.Subquery, sc)
		if err != nil {
			return nil, err
		}
		if len(plan.Schema()) != 1 {
			return nil, fmt.Errorf("quantified subquery must return exactly one column")
		}
		needle, err := a.analyzeExpr(x.E, sc, ctx)
		if err != nil {
			return nil, err
		}
		// = ANY is IN; <> ALL is NOT IN — reuse the IN machinery (and its
		// provenance de-correlation).
		if x.Op == sql.OpEq && !x.All {
			return &algebra.Subplan{Mode: algebra.InSubplan, Plan: plan,
				Needle: needle, Correlated: correlated}, nil
		}
		if x.Op == sql.OpNeq && x.All {
			return &algebra.Subplan{Mode: algebra.InSubplan, Plan: plan,
				Needle: needle, Neg: true, Correlated: correlated}, nil
		}
		mode := algebra.AnySubplan
		if x.All {
			mode = algebra.AllSubplan
		}
		return &algebra.Subplan{Mode: mode, Plan: plan, Needle: needle,
			CmpOp: x.Op, Correlated: correlated}, nil
	case *sql.BetweenExpr:
		inner, err := a.analyzeExpr(x.E, sc, ctx)
		if err != nil {
			return nil, err
		}
		lo, err := a.analyzeExpr(x.Lo, sc, ctx)
		if err != nil {
			return nil, err
		}
		hi, err := a.analyzeExpr(x.Hi, sc, ctx)
		if err != nil {
			return nil, err
		}
		rng := &algebra.Bin{Op: sql.OpAnd,
			L: &algebra.Bin{Op: sql.OpGte, L: inner, R: lo},
			R: &algebra.Bin{Op: sql.OpLte, L: inner, R: hi}}
		if x.Not {
			return &algebra.Not{E: rng}, nil
		}
		return rng, nil
	case *sql.LikeExpr:
		inner, err := a.analyzeExpr(x.E, sc, ctx)
		if err != nil {
			return nil, err
		}
		pat, err := a.analyzeExpr(x.Pattern, sc, ctx)
		if err != nil {
			return nil, err
		}
		return &algebra.Like{E: inner, Pattern: pat, Neg: x.Not}, nil
	case *sql.CastExpr:
		inner, err := a.analyzeExpr(x.E, sc, ctx)
		if err != nil {
			return nil, err
		}
		kind, err := value.KindFromTypeName(x.TypeName)
		if err != nil {
			return nil, err
		}
		return &algebra.Cast{E: inner, To: kind}, nil
	}
	return nil, fmt.Errorf("unsupported expression %T", e)
}

// tryGroupMatch resolves a post-aggregation expression that structurally
// equals a GROUP BY expression, or an aggregate call, to its Agg output.
func (a *Analyzer) tryGroupMatch(e sql.Expr, sc *scope, ctx exprCtx) (algebra.Expr, bool) {
	// Aggregate call?
	if fc, ok := e.(*sql.FuncCall); ok && isAggName(fc.Name) {
		ae, err := a.buildAggExpr(fc, ctx.preAggScope)
		if err != nil {
			return nil, false
		}
		idx := ctx.aggs.add(ae)
		if idx < 0 {
			return nil, false
		}
		return &algebra.ColIdx{Idx: ctx.groupCount + idx, Typ: ae.Type(), Name: string(ae.Func)}, true
	}
	// Group expression match: analyze over the pre-agg scope and compare.
	pre, err := a.analyzeExpr(e, ctx.preAggScope, exprCtx{})
	if err != nil {
		return nil, false
	}
	if idx, ok := ctx.groupKeys[pre.String()]; ok {
		name := ""
		if ci, ok2 := pre.(*algebra.ColIdx); ok2 {
			name = ci.Name
		}
		return &algebra.ColIdx{Idx: idx, Typ: pre.Type(), Name: name}, true
	}
	return nil, false
}

// buildAggExpr analyzes an aggregate call's argument over the pre-agg scope.
func (a *Analyzer) buildAggExpr(fc *sql.FuncCall, pre *scope) (algebra.AggExpr, error) {
	ae := algebra.AggExpr{Func: algebra.AggFunc(fc.Name), Distinct: fc.Distinct}
	if fc.Star {
		if fc.Name != "count" {
			return ae, fmt.Errorf("%s(*) is not a valid aggregate", fc.Name)
		}
		return ae, nil
	}
	if len(fc.Args) != 1 {
		return ae, fmt.Errorf("aggregate %s takes exactly one argument", fc.Name)
	}
	if containsAggCall(fc.Args[0]) {
		return ae, fmt.Errorf("aggregate calls cannot be nested")
	}
	arg, err := a.analyzeExpr(fc.Args[0], pre, exprCtx{})
	if err != nil {
		return ae, err
	}
	ae.Arg = arg
	return ae, nil
}

func (a *Analyzer) analyzeFunc(x *sql.FuncCall, sc *scope, ctx exprCtx) (algebra.Expr, error) {
	if isAggName(x.Name) {
		if !ctx.allowAggs {
			return nil, fmt.Errorf("aggregate function %s is not allowed here", x.Name)
		}
		if !ctx.aggMode {
			return nil, fmt.Errorf("internal: aggregate %s outside aggregation context", x.Name)
		}
		ae, err := a.buildAggExpr(x, ctx.preAggScope)
		if err != nil {
			return nil, err
		}
		idx := ctx.aggs.add(ae)
		if idx < 0 {
			return nil, fmt.Errorf("aggregate %s must already appear in the select list or HAVING to be used here", x.Name)
		}
		return &algebra.ColIdx{Idx: ctx.groupCount + idx, Typ: ae.Type(), Name: string(ae.Func)}, nil
	}
	fn, ok := value.LookupFunc(x.Name)
	if !ok {
		return nil, fmt.Errorf("unknown function %q", x.Name)
	}
	if x.Star || x.Distinct {
		return nil, fmt.Errorf("%q is not an aggregate function", x.Name)
	}
	if !fn.Accepts(len(x.Args)) {
		return nil, fmt.Errorf("function %q expects %s arguments, got %d", x.Name, fn.Arity(), len(x.Args))
	}
	args := make([]algebra.Expr, len(x.Args))
	kinds := make([]value.Kind, len(x.Args))
	for i, arg := range x.Args {
		ae, err := a.analyzeExpr(arg, sc, ctx)
		if err != nil {
			return nil, err
		}
		args[i], kinds[i] = ae, ae.Type()
	}
	return &algebra.Func{Name: x.Name, Args: args, Typ: fn.Result(kinds)}, nil
}

func (a *Analyzer) analyzeCase(x *sql.CaseExpr, sc *scope, ctx exprCtx) (algebra.Expr, error) {
	// Operand form desugars to searched form: CASE x WHEN v ... ->
	// CASE WHEN x = v ...
	whens := make([]algebra.CaseWhen, 0, len(x.Whens))
	var operand algebra.Expr
	if x.Operand != nil {
		op, err := a.analyzeExpr(x.Operand, sc, ctx)
		if err != nil {
			return nil, err
		}
		operand = op
	}
	resultKind := value.KindNull
	for _, w := range x.Whens {
		cond, err := a.analyzeExpr(w.Cond, sc, ctx)
		if err != nil {
			return nil, err
		}
		if operand != nil {
			cond = &algebra.Bin{Op: sql.OpEq, L: operand, R: cond}
		}
		res, err := a.analyzeExpr(w.Result, sc, ctx)
		if err != nil {
			return nil, err
		}
		resultKind = value.CommonKind(resultKind, res.Type())
		whens = append(whens, algebra.CaseWhen{Cond: cond, Result: res})
	}
	var elseE algebra.Expr
	if x.Else != nil {
		e2, err := a.analyzeExpr(x.Else, sc, ctx)
		if err != nil {
			return nil, err
		}
		elseE = e2
		resultKind = value.CommonKind(resultKind, e2.Type())
	}
	return &algebra.Case{Whens: whens, Else: elseE, Typ: resultKind}, nil
}

// analyzeSubquery analyzes a nested query with the current scope as its
// outer environment and reports whether it is correlated.
func (a *Analyzer) analyzeSubquery(st *sql.SelectStmt, sc *scope) (algebra.Op, bool, error) {
	plan, err := a.analyzeSelect(st, sc)
	if err != nil {
		return nil, false, err
	}
	correlated := false
	algebra.VisitExprs(plan, func(e algebra.Expr) {
		if _, ok := e.(*algebra.OuterRef); ok {
			correlated = true
		}
	})
	return plan, correlated, nil
}
