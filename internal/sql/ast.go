// Package sql implements the SQL front-end of Perm: lexer, parser and
// abstract syntax tree. It is the one reader of SQL text. Every token records
// the byte span it was read from, and a parsed query keeps its text as
// written (SelectStmt.Text), which is what a view stores and EXPLAIN shows
// as the original query; there is no printer back from the tree. Other
// packages that look at statement text — the router, the driver's read-only
// check, the plan cache — ask FirstKeyword, which reads by the lexer's rules.
// The grammar is the SQL subset Perm supports plus the SQL-PLE provenance
// language extension of the paper:
//
//	SELECT PROVENANCE [ON CONTRIBUTION (INFLUENCE | COPY)] ...
//	<from item> BASERELATION
//	<from item> PROVENANCE (attr, ...)
package sql

import (
	"perm/internal/value"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any scalar expression node.
type Expr interface{ expr() }

// --- Query statements -------------------------------------------------------

// SelectStmt is a full query expression: a body (single SELECT core or a tree
// of set operations) with optional ORDER BY / LIMIT / OFFSET.
type SelectStmt struct {
	Body    QueryBody
	OrderBy []OrderItem
	Limit   Expr   // nil when absent
	Offset  Expr   // nil when absent
	Text    string // the query as written: its span of the parsed source
}

func (*SelectStmt) stmt() {}

// QueryBody is either a *SelectCore or a *SetOpBody.
type QueryBody interface{ body() }

// SetOpType enumerates UNION / INTERSECT / EXCEPT.
type SetOpType int

// Set operation kinds.
const (
	Union SetOpType = iota
	Intersect
	Except
)

func (s SetOpType) String() string {
	switch s {
	case Union:
		return "UNION"
	case Intersect:
		return "INTERSECT"
	case Except:
		return "EXCEPT"
	}
	return "SETOP"
}

// SetOpBody combines two query bodies with a set operation.
type SetOpBody struct {
	Op    SetOpType
	All   bool
	Left  QueryBody
	Right QueryBody
}

func (*SetOpBody) body() {}

// ContributionSemantics names a provenance contribution definition of
// SQL-PLE's ON CONTRIBUTION clause.
type ContributionSemantics int

// Supported contribution semantics. Influence is PI-CS (Why-provenance
// flavored); Copy/CopyComplete are C-CS variants (Where-provenance flavored):
// COPY (PARTIAL) keeps a provenance attribute when it is copied to the output
// on some derivation path; COPY COMPLETE requires every path (paper §2.4:
// "several types of Where-provenance as keyword COPY").
const (
	DefaultContribution ContributionSemantics = iota
	Influence
	Copy
	CopyComplete
)

func (c ContributionSemantics) String() string {
	switch c {
	case Influence:
		return "INFLUENCE"
	case Copy:
		return "COPY PARTIAL"
	case CopyComplete:
		return "COPY COMPLETE"
	}
	return "DEFAULT"
}

// SelectCore is one SELECT ... FROM ... block.
type SelectCore struct {
	// Provenance marks SELECT PROVENANCE (SQL-PLE).
	Provenance bool
	// Contribution is the ON CONTRIBUTION (...) modifier; DefaultContribution
	// means the session default (influence).
	Contribution ContributionSemantics
	Distinct     bool
	Items        []SelectItem
	From         []TableExpr // empty means a one-row FROM-less select
	Where        Expr
	GroupBy      []Expr
	Having       Expr
}

func (*SelectCore) body() {}

// SelectItem is one element of the select list.
type SelectItem struct {
	// Star is SELECT * (TableStar empty) or SELECT t.* (TableStar = "t").
	Star      bool
	TableStar string
	Expr      Expr
	Alias     string
}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// --- FROM items -------------------------------------------------------------

// TableExpr is a FROM item.
type TableExpr interface{ tableExpr() }

// ProvSpec carries the SQL-PLE per-FROM-item provenance annotations.
type ProvSpec struct {
	// BaseRelation: treat this item like a base relation during provenance
	// rewrite (stop descending; SQL-PLE keyword BASERELATION).
	BaseRelation bool
	// ProvAttrs: these attributes of the item already are provenance
	// (external provenance; SQL-PLE keyword PROVENANCE (a, b, ...)).
	ProvAttrs []string
	// HasProvAttrs distinguishes PROVENANCE () from absence.
	HasProvAttrs bool
}

// TableRef references a stored table or view, with optional alias.
type TableRef struct {
	Name  string
	Alias string
	Prov  ProvSpec
}

func (*TableRef) tableExpr() {}

// SubqueryRef is a derived table: (SELECT ...) alias.
type SubqueryRef struct {
	Select *SelectStmt
	Alias  string
	Prov   ProvSpec
}

func (*SubqueryRef) tableExpr() {}

// JoinKind enumerates join types.
type JoinKind int

// Join kinds.
const (
	InnerJoin JoinKind = iota
	LeftJoin
	RightJoin
	FullJoin
	CrossJoin
)

func (k JoinKind) String() string {
	switch k {
	case InnerJoin:
		return "JOIN"
	case LeftJoin:
		return "LEFT JOIN"
	case RightJoin:
		return "RIGHT JOIN"
	case FullJoin:
		return "FULL JOIN"
	case CrossJoin:
		return "CROSS JOIN"
	}
	return "JOIN"
}

// JoinExpr is an explicit join between two FROM items.
type JoinExpr struct {
	Kind  JoinKind
	Left  TableExpr
	Right TableExpr
	On    Expr     // nil for CROSS JOIN or USING
	Using []string // non-empty for JOIN ... USING (...)
}

func (*JoinExpr) tableExpr() {}

// --- Other statements --------------------------------------------------------

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name     string
	TypeName string
	NotNull  bool
}

// CreateTableStmt is CREATE TABLE, optionally CREATE TABLE ... AS SELECT.
type CreateTableStmt struct {
	Name     string
	Columns  []ColumnDef
	AsSelect *SelectStmt // non-nil for CTAS; Columns then empty
}

func (*CreateTableStmt) stmt() {}

// CreateViewStmt is CREATE VIEW name AS select. Text is the defining query
// as written, kept for later re-analysis (view unfolding).
type CreateViewStmt struct {
	Name   string
	Select *SelectStmt
	Text   string
}

func (*CreateViewStmt) stmt() {}

// DropStmt drops a table or view.
type DropStmt struct {
	View     bool
	Name     string
	IfExists bool
}

func (*DropStmt) stmt() {}

// InsertStmt inserts literal rows or a query result.
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr    // VALUES form
	Select  *SelectStmt // INSERT ... SELECT form
}

func (*InsertStmt) stmt() {}

// DeleteStmt deletes rows from a table.
type DeleteStmt struct {
	Table string
	Where Expr
}

func (*DeleteStmt) stmt() {}

// UpdateStmt updates rows in place.
type UpdateStmt struct {
	Table string
	Sets  []UpdateSet
	Where Expr
}

// UpdateSet is one SET col = expr assignment.
type UpdateSet struct {
	Column string
	Expr   Expr
}

func (*UpdateStmt) stmt() {}

// ExplainStmt asks for the plan of a query, an INSERT, an UPDATE or a
// DELETE; Text is the target as written. With Analyze true the query also
// runs and per-stage timings are reported (the Figure 3 pipeline); a write
// is never analyzed.
type ExplainStmt struct {
	Analyze bool
	Target  Statement
	Text    string
}

func (*ExplainStmt) stmt() {}

// SetStmt sets a session variable (SET name = 'value').
type SetStmt struct {
	Name  string
	Value string
}

func (*SetStmt) stmt() {}

// ShowStmt reads a session variable.
type ShowStmt struct{ Name string }

func (*ShowStmt) stmt() {}

// AnalyzeStmt refreshes optimizer statistics (ANALYZE [table]).
type AnalyzeStmt struct{ Table string }

func (*AnalyzeStmt) stmt() {}

// BeginStmt starts an explicit transaction (BEGIN [TRANSACTION | WORK]).
type BeginStmt struct{}

func (*BeginStmt) stmt() {}

// CommitStmt commits the open transaction (COMMIT | END [TRANSACTION | WORK]).
type CommitStmt struct{}

func (*CommitStmt) stmt() {}

// RollbackStmt aborts the open transaction (ROLLBACK | ABORT [TRANSACTION | WORK]).
type RollbackStmt struct{}

func (*RollbackStmt) stmt() {}

// --- Expressions -------------------------------------------------------------

// Literal is a constant.
type Literal struct{ Val value.Value }

func (*Literal) expr() {}

// Placeholder is a `?` bind parameter. The parser numbers placeholders in
// textual order (0-based); values are supplied at execution time through the
// engine's prepared-statement API, so a statement's plan can be built once
// and executed with different arguments.
type Placeholder struct{ Index int }

func (*Placeholder) expr() {}

// ColRef is a (possibly qualified) column reference.
type ColRef struct {
	Table string // empty when unqualified
	Name  string
}

func (*ColRef) expr() {}

// BinOp enumerates binary operators.
type BinOp int

// Binary operators.
const (
	OpEq BinOp = iota
	OpNeq
	OpLt
	OpLte
	OpGt
	OpGte
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpConcat
	// OpNotDistinct is IS NOT DISTINCT FROM (null-safe equality). The parser
	// emits it for the explicit syntax; the provenance rewriter synthesizes
	// it for join-back conditions over nullable group-by keys.
	OpNotDistinct
)

func (o BinOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNeq:
		return "<>"
	case OpLt:
		return "<"
	case OpLte:
		return "<="
	case OpGt:
		return ">"
	case OpGte:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpConcat:
		return "||"
	case OpNotDistinct:
		return "IS NOT DISTINCT FROM"
	}
	return "?"
}

// BinExpr applies a binary operator.
type BinExpr struct {
	Op   BinOp
	L, R Expr
}

func (*BinExpr) expr() {}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op string // "not" | "-" | "+"
	E  Expr
}

func (*UnaryExpr) expr() {}

// FuncCall is a function or aggregate invocation.
type FuncCall struct {
	Name     string
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x), SUM(DISTINCT x), ...
}

func (*FuncCall) expr() {}

// CaseExpr is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []CaseWhen
	Else    Expr
}

// CaseWhen is one WHEN/THEN arm.
type CaseWhen struct {
	Cond   Expr
	Result Expr
}

func (*CaseExpr) expr() {}

// IsNullExpr is expr IS [NOT] NULL.
type IsNullExpr struct {
	E   Expr
	Not bool
}

func (*IsNullExpr) expr() {}

// InExpr is expr [NOT] IN (list) or expr [NOT] IN (subquery).
type InExpr struct {
	E        Expr
	List     []Expr
	Subquery *SelectStmt
	Not      bool
}

func (*InExpr) expr() {}

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Subquery *SelectStmt
	Not      bool
}

func (*ExistsExpr) expr() {}

// SubqueryExpr is a scalar subquery.
type SubqueryExpr struct{ Select *SelectStmt }

func (*SubqueryExpr) expr() {}

// QuantifiedExpr is expr op ANY|SOME|ALL (subquery). ANY/SOME is All=false.
type QuantifiedExpr struct {
	Op       BinOp
	E        Expr
	Subquery *SelectStmt
	All      bool
}

func (*QuantifiedExpr) expr() {}

// BetweenExpr is expr [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	E, Lo, Hi Expr
	Not       bool
}

func (*BetweenExpr) expr() {}

// LikeExpr is expr [NOT] LIKE pattern.
type LikeExpr struct {
	E, Pattern Expr
	Not        bool
}

func (*LikeExpr) expr() {}

// CastExpr is CAST(expr AS type).
type CastExpr struct {
	E        Expr
	TypeName string
}

func (*CastExpr) expr() {}
