package algebra

import (
	"fmt"
	"strings"

	"perm/internal/value"
)

// Column is one attribute of an operator's output schema. Provenance
// metadata rides along: IsProv marks a provenance attribute, ProvRel/ProvAttr
// record the base relation and attribute it was derived from (which gives the
// paper's prov_<rel>_<attr> naming scheme).
type Column struct {
	Name     string
	Table    string // qualifier for name resolution ("" when none)
	Type     value.Kind
	IsProv   bool
	ProvRel  string
	ProvAttr string
}

// QualifiedName renders table.name or just name.
func (c Column) QualifiedName() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// Schema is an ordered list of output columns.
type Schema []Column

// Clone copies the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Names returns the column names.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// ProvIdx returns the indices of the provenance columns.
func (s Schema) ProvIdx() []int {
	var out []int
	for i, c := range s {
		if c.IsProv {
			out = append(out, i)
		}
	}
	return out
}

// DataIdx returns the indices of the non-provenance columns.
func (s Schema) DataIdx() []int {
	var out []int
	for i, c := range s {
		if !c.IsProv {
			out = append(out, i)
		}
	}
	return out
}

// String renders the schema for plan display.
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		p := c.Name
		if c.IsProv {
			p += "*"
		}
		parts[i] = p
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Op is a logical algebra operator.
type Op interface {
	// Schema is the output row layout.
	Schema() Schema
	// Children returns the inputs in order.
	Children() []Op
	// WithChildren returns a copy of the operator with the inputs replaced.
	WithChildren(children []Op) Op
	// Name is the operator's display name (with the algebra symbol Perm's
	// browser shows in its trees).
	Name() string
}

// --- Scan --------------------------------------------------------------------

// Scan reads a base relation. Alias is the FROM-clause correlation name used
// for column qualification.
type Scan struct {
	Table string
	Alias string
	Sch   Schema
}

// Schema implements Op.
func (s *Scan) Schema() Schema { return s.Sch }

// Children implements Op.
func (s *Scan) Children() []Op { return nil }

// WithChildren implements Op.
func (s *Scan) WithChildren(children []Op) Op {
	if len(children) != 0 {
		panic("Scan takes no children")
	}
	return s
}

// Name implements Op.
func (s *Scan) Name() string {
	if s.Alias != "" && !strings.EqualFold(s.Alias, s.Table) {
		return fmt.Sprintf("Scan %s AS %s", s.Table, s.Alias)
	}
	return "Scan " + s.Table
}

// --- Values ------------------------------------------------------------------

// Values produces literal rows (it backs FROM-less SELECTs with one empty
// row, and INSERT ... VALUES).
type Values struct {
	Rows [][]Expr
	Sch  Schema
}

// Schema implements Op.
func (v *Values) Schema() Schema { return v.Sch }

// Children implements Op.
func (v *Values) Children() []Op { return nil }

// WithChildren implements Op.
func (v *Values) WithChildren(children []Op) Op {
	if len(children) != 0 {
		panic("Values takes no children")
	}
	return v
}

// Name implements Op.
func (v *Values) Name() string { return fmt.Sprintf("Values (%d rows)", len(v.Rows)) }

// --- Project -----------------------------------------------------------------

// Project computes the output expressions (Π).
type Project struct {
	Input Op
	Exprs []Expr
	Sch   Schema
}

// Schema implements Op.
func (p *Project) Schema() Schema { return p.Sch }

// Children implements Op.
func (p *Project) Children() []Op { return []Op{p.Input} }

// WithChildren implements Op.
func (p *Project) WithChildren(children []Op) Op {
	cp := *p
	cp.Input = children[0]
	return &cp
}

// Name implements Op.
func (p *Project) Name() string { return "Project Π" }

// NewProject builds a Project with the given output names over input.
func NewProject(input Op, exprs []Expr, names []string) *Project {
	sch := make(Schema, len(exprs))
	for i, e := range exprs {
		sch[i] = Column{Name: names[i], Type: e.Type()}
	}
	return &Project{Input: input, Exprs: exprs, Sch: sch}
}

// IdentityExprs returns ColIdx expressions for every column of sch.
func IdentityExprs(sch Schema) []Expr {
	out := make([]Expr, len(sch))
	for i, c := range sch {
		out[i] = &ColIdx{Idx: i, Typ: c.Type, Name: c.Name}
	}
	return out
}

// --- Select ------------------------------------------------------------------

// Select filters rows (σ).
type Select struct {
	Input Op
	Cond  Expr
}

// Schema implements Op.
func (s *Select) Schema() Schema { return s.Input.Schema() }

// Children implements Op.
func (s *Select) Children() []Op { return []Op{s.Input} }

// WithChildren implements Op.
func (s *Select) WithChildren(children []Op) Op {
	cp := *s
	cp.Input = children[0]
	return &cp
}

// Name implements Op.
func (s *Select) Name() string { return "Select σ" }

// --- Join --------------------------------------------------------------------

// JoinKind enumerates logical join types.
type JoinKind int

// Join kinds. Semi and anti joins are produced by subquery de-correlation.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinRight
	JoinFull
	JoinCross
	JoinSemi
	JoinAnti
)

func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "Inner"
	case JoinLeft:
		return "Left"
	case JoinRight:
		return "Right"
	case JoinFull:
		return "Full"
	case JoinCross:
		return "Cross"
	case JoinSemi:
		return "Semi"
	case JoinAnti:
		return "Anti"
	}
	return "?"
}

// Join combines two inputs (⋈). Cond is evaluated over the concatenated
// schema left++right; for semi/anti joins the output schema is just the left
// schema. When Lateral is set, the right input may contain OuterRef
// expressions that bind to the current left row (a correlated / LATERAL
// join); the provenance rewriter produces these when de-correlating nested
// subqueries per the EDBT '09 strategy.
type Join struct {
	Kind    JoinKind
	Left    Op
	Right   Op
	Cond    Expr // nil for cross join
	Lateral bool
	Sch     Schema
}

// Schema implements Op.
func (j *Join) Schema() Schema { return j.Sch }

// Children implements Op.
func (j *Join) Children() []Op { return []Op{j.Left, j.Right} }

// WithChildren implements Op.
func (j *Join) WithChildren(children []Op) Op {
	cp := *j
	cp.Left, cp.Right = children[0], children[1]
	return &cp
}

// Name implements Op.
func (j *Join) Name() string { return fmt.Sprintf("Join ⋈ %s", j.Kind) }

// NewJoin builds a join with the schema derived from the inputs. Outer joins
// make the null-extendable side's columns nullable, which the type system
// models implicitly (kinds are unchanged).
func NewJoin(kind JoinKind, left, right Op, cond Expr) *Join {
	var sch Schema
	switch kind {
	case JoinSemi, JoinAnti:
		sch = left.Schema().Clone()
	default:
		sch = append(left.Schema().Clone(), right.Schema()...)
	}
	return &Join{Kind: kind, Left: left, Right: right, Cond: cond, Sch: sch}
}

// --- BaseRel (SQL-PLE BASERELATION) -------------------------------------------

// BaseRel is an execution no-op that instructs the provenance rewriter to
// treat its subtree like a base relation (SQL-PLE keyword BASERELATION): the
// rewrite stops here and the subtree's output attributes are duplicated as
// its provenance attributes under the name RelName.
type BaseRel struct {
	Input   Op
	RelName string
}

// Schema implements Op.
func (b *BaseRel) Schema() Schema { return b.Input.Schema() }

// Children implements Op.
func (b *BaseRel) Children() []Op { return []Op{b.Input} }

// WithChildren implements Op.
func (b *BaseRel) WithChildren(children []Op) Op {
	cp := *b
	cp.Input = children[0]
	return &cp
}

// Name implements Op.
func (b *BaseRel) Name() string { return fmt.Sprintf("BaseRelation(%s)", b.RelName) }

// --- ProvDone ------------------------------------------------------------------

// ProvDone is an execution no-op marking a subtree whose provenance
// attributes are already complete: external provenance declared via
// PROVENANCE (attrs), or a nested SELECT PROVENANCE block that has already
// been rewritten. The provenance rewriter does not descend into it — the
// flagged columns of its schema ARE its provenance ("the rewrite rules are
// unaware of how the provenance attributes of their input were produced",
// §2.2).
type ProvDone struct {
	Input Op
}

// Schema implements Op.
func (p *ProvDone) Schema() Schema { return p.Input.Schema() }

// Children implements Op.
func (p *ProvDone) Children() []Op { return []Op{p.Input} }

// WithChildren implements Op.
func (p *ProvDone) WithChildren(children []Op) Op {
	cp := *p
	cp.Input = children[0]
	return &cp
}

// Name implements Op.
func (p *ProvDone) Name() string { return "ProvenanceGiven" }

// --- Aggregate ---------------------------------------------------------------

// AggFunc names an aggregate function.
type AggFunc string

// Supported aggregates.
const (
	AggCount AggFunc = "count"
	AggSum   AggFunc = "sum"
	AggAvg   AggFunc = "avg"
	AggMin   AggFunc = "min"
	AggMax   AggFunc = "max"
)

// AggExpr is one aggregate computation.
type AggExpr struct {
	Func     AggFunc
	Arg      Expr // nil for COUNT(*)
	Distinct bool
}

// Type returns the aggregate's result kind.
func (a AggExpr) Type() value.Kind {
	switch a.Func {
	case AggCount:
		return value.KindInt
	case AggAvg:
		return value.KindFloat
	case AggSum, AggMin, AggMax:
		if a.Arg != nil {
			return a.Arg.Type()
		}
		return value.KindInt
	}
	return value.KindNull
}

func (a AggExpr) String() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	if a.Distinct {
		arg = "DISTINCT " + arg
	}
	return fmt.Sprintf("%s(%s)", a.Func, arg)
}

// Agg groups and aggregates (α). Output schema: group expressions first (in
// order), then one column per aggregate. With no group-by expressions it
// produces exactly one row.
type Agg struct {
	Input   Op
	GroupBy []Expr
	Aggs    []AggExpr
	Sch     Schema
}

// Schema implements Op.
func (a *Agg) Schema() Schema { return a.Sch }

// Children implements Op.
func (a *Agg) Children() []Op { return []Op{a.Input} }

// WithChildren implements Op.
func (a *Agg) WithChildren(children []Op) Op {
	cp := *a
	cp.Input = children[0]
	return &cp
}

// Name implements Op.
func (a *Agg) Name() string { return "Aggregate α" }

// NewAgg builds an aggregation node with generated column names.
func NewAgg(input Op, groupBy []Expr, aggs []AggExpr, groupNames, aggNames []string) *Agg {
	sch := make(Schema, 0, len(groupBy)+len(aggs))
	for i, g := range groupBy {
		name := fmt.Sprintf("g%d", i+1)
		if i < len(groupNames) && groupNames[i] != "" {
			name = groupNames[i]
		}
		sch = append(sch, Column{Name: name, Type: g.Type()})
	}
	for i, a := range aggs {
		name := fmt.Sprintf("agg%d", i+1)
		if i < len(aggNames) && aggNames[i] != "" {
			name = aggNames[i]
		}
		sch = append(sch, Column{Name: name, Type: a.Type()})
	}
	return &Agg{Input: input, GroupBy: groupBy, Aggs: aggs, Sch: sch}
}

// --- Distinct ----------------------------------------------------------------

// Distinct removes duplicate rows (δ).
type Distinct struct{ Input Op }

// Schema implements Op.
func (d *Distinct) Schema() Schema { return d.Input.Schema() }

// Children implements Op.
func (d *Distinct) Children() []Op { return []Op{d.Input} }

// WithChildren implements Op.
func (d *Distinct) WithChildren(children []Op) Op {
	cp := *d
	cp.Input = children[0]
	return &cp
}

// Name implements Op.
func (d *Distinct) Name() string { return "Distinct δ" }

// --- Set operations ------------------------------------------------------------

// SetOpKind enumerates bag/set union, intersection and difference.
type SetOpKind int

// Set operation kinds. The *All variants are bag semantics.
const (
	UnionAll SetOpKind = iota
	UnionDistinct
	IntersectAll
	IntersectDistinct
	ExceptAll
	ExceptDistinct
)

func (k SetOpKind) String() string {
	switch k {
	case UnionAll:
		return "Union All ∪"
	case UnionDistinct:
		return "Union ∪"
	case IntersectAll:
		return "Intersect All ∩"
	case IntersectDistinct:
		return "Intersect ∩"
	case ExceptAll:
		return "Except All −"
	case ExceptDistinct:
		return "Except −"
	}
	return "SetOp"
}

// SetOp combines two inputs with matching column counts. The output schema
// follows the left input (names and qualifiers), per SQL.
type SetOp struct {
	Kind  SetOpKind
	Left  Op
	Right Op
	Sch   Schema
}

// Schema implements Op.
func (s *SetOp) Schema() Schema { return s.Sch }

// Children implements Op.
func (s *SetOp) Children() []Op { return []Op{s.Left, s.Right} }

// WithChildren implements Op.
func (s *SetOp) WithChildren(children []Op) Op {
	cp := *s
	cp.Left, cp.Right = children[0], children[1]
	return &cp
}

// Name implements Op.
func (s *SetOp) Name() string { return s.Kind.String() }

// NewSetOp builds a set operation whose schema mirrors the left input with
// types widened column-wise.
func NewSetOp(kind SetOpKind, left, right Op) *SetOp {
	ls, rs := left.Schema(), right.Schema()
	sch := ls.Clone()
	for i := range sch {
		if i < len(rs) {
			sch[i].Type = value.CommonKind(ls[i].Type, rs[i].Type)
		}
	}
	return &SetOp{Kind: kind, Left: left, Right: right, Sch: sch}
}

// --- Sort / Limit ---------------------------------------------------------------

// SortKey is one ORDER BY key.
type SortKey struct {
	Expr Expr
	Desc bool
}

// Sort orders rows (τ).
type Sort struct {
	Input Op
	Keys  []SortKey
}

// Schema implements Op.
func (s *Sort) Schema() Schema { return s.Input.Schema() }

// Children implements Op.
func (s *Sort) Children() []Op { return []Op{s.Input} }

// WithChildren implements Op.
func (s *Sort) WithChildren(children []Op) Op {
	cp := *s
	cp.Input = children[0]
	return &cp
}

// Name implements Op.
func (s *Sort) Name() string { return "Sort τ" }

// Limit truncates the input. Negative Count means no limit (offset only).
type Limit struct {
	Input  Op
	Count  int64
	Offset int64
}

// Schema implements Op.
func (l *Limit) Schema() Schema { return l.Input.Schema() }

// Children implements Op.
func (l *Limit) Children() []Op { return []Op{l.Input} }

// WithChildren implements Op.
func (l *Limit) WithChildren(children []Op) Op {
	cp := *l
	cp.Input = children[0]
	return &cp
}

// Name implements Op.
func (l *Limit) Name() string {
	if l.Count < 0 {
		return fmt.Sprintf("Offset %d", l.Offset)
	}
	return fmt.Sprintf("Limit %d offset %d", l.Count, l.Offset)
}

// --- tree utilities -------------------------------------------------------------

// Walk visits op and its descendants pre-order.
func Walk(op Op, fn func(Op)) {
	if op == nil {
		return
	}
	fn(op)
	for _, c := range op.Children() {
		Walk(c, fn)
	}
}

// MapExprs returns a copy of the tree with every expression of every operator
// rewritten through fn (top-level expressions only; fn receives each stored
// expression and returns the replacement).
func MapExprs(op Op, fn func(Expr) Expr) Op {
	children := op.Children()
	newChildren := make([]Op, len(children))
	for i, c := range children {
		newChildren[i] = MapExprs(c, fn)
	}
	return MapOwnExprs(op.WithChildren(newChildren), fn)
}

// MapOwnExprs rewrites only this operator's own expressions through fn,
// leaving children untouched. It returns op itself when fn returned every
// expression unchanged, and a copy otherwise.
func MapOwnExprs(op Op, fn func(Expr) Expr) Op {
	// mapAll maps a slice, copying it at the first expression fn changes.
	mapAll := func(exprs []Expr) ([]Expr, bool) {
		changed := false
		for i, e := range exprs {
			ne := fn(e)
			if ne == e {
				continue
			}
			if !changed {
				exprs = append([]Expr(nil), exprs...)
				changed = true
			}
			exprs[i] = ne
		}
		return exprs, changed
	}
	switch o := op.(type) {
	case *Project:
		if exprs, changed := mapAll(o.Exprs); changed {
			cp := *o
			cp.Exprs = exprs
			return &cp
		}
	case *Select:
		if cond := fn(o.Cond); cond != o.Cond {
			cp := *o
			cp.Cond = cond
			return &cp
		}
	case *Join:
		if o.Cond != nil {
			if cond := fn(o.Cond); cond != o.Cond {
				cp := *o
				cp.Cond = cond
				return &cp
			}
		}
	case *Agg:
		groupBy, changed := mapAll(o.GroupBy)
		aggs, aggsChanged := o.Aggs, false
		for i, a := range o.Aggs {
			if a.Arg == nil {
				continue
			}
			arg := fn(a.Arg)
			if arg == a.Arg {
				continue
			}
			if !aggsChanged {
				aggs = append([]AggExpr(nil), o.Aggs...)
				aggsChanged = true
			}
			aggs[i].Arg = arg
		}
		if changed || aggsChanged {
			cp := *o
			cp.GroupBy, cp.Aggs = groupBy, aggs
			return &cp
		}
	case *Sort:
		keys, changed := o.Keys, false
		for i, k := range o.Keys {
			ne := fn(k.Expr)
			if ne == k.Expr {
				continue
			}
			if !changed {
				keys = append([]SortKey(nil), o.Keys...)
				changed = true
			}
			keys[i].Expr = ne
		}
		if changed {
			cp := *o
			cp.Keys = keys
			return &cp
		}
	case *Values:
		rows, changed := o.Rows, false
		for i, row := range o.Rows {
			nr, rowChanged := mapAll(row)
			if !rowChanged {
				continue
			}
			if !changed {
				rows = append([][]Expr(nil), o.Rows...)
				changed = true
			}
			rows[i] = nr
		}
		if changed {
			cp := *o
			cp.Rows = rows
			return &cp
		}
	}
	return op
}

// CountOps returns the number of operators in the tree.
func CountOps(op Op) int {
	n := 0
	Walk(op, func(Op) { n++ })
	return n
}
