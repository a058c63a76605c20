package sql

import (
	"fmt"
	"strconv"
	"strings"

	"perm/internal/value"
)

// Parser is a recursive-descent parser over the token stream. Keywords are
// matched case-insensitively against IDENT tokens so that non-reserved words
// remain valid identifiers.
type Parser struct {
	src  string
	toks []Token
	pos  int
	// params counts `?` placeholders seen so far; each one is numbered in
	// textual order, which is the order bind arguments are supplied in.
	params int
}

// reservedAlias lists keywords that terminate a FROM item and therefore can
// never be an implicit (AS-less) alias.
var reservedAlias = map[string]bool{
	"where": true, "group": true, "having": true, "order": true,
	"limit": true, "offset": true, "union": true, "intersect": true,
	"except": true, "on": true, "join": true, "inner": true, "left": true,
	"right": true, "full": true, "cross": true, "natural": true,
	"using": true, "as": true, "baserelation": true, "provenance": true,
	"and": true, "or": true, "not": true, "select": true, "from": true,
	"set": true, "when": true, "then": true, "else": true, "end": true,
	"desc": true, "asc": true, "returning": true,
}

// Parse parses a single SQL statement (optionally terminated by ';').
func Parse(input string) (Statement, error) {
	stmts, err := ParseScript(input)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseWithParams parses a single statement and additionally reports how many
// `?` bind placeholders it contains — the prepared-statement front door: the
// engine parses once, learns the parameter count, and analyzes later per
// bound argument types.
func ParseWithParams(input string) (Statement, int, error) {
	toks, err := Tokens(input)
	if err != nil {
		return nil, 0, err
	}
	p := &Parser{src: input, toks: toks}
	for p.peek().Type == SEMI {
		p.next()
	}
	if p.peek().Type == EOF {
		return nil, 0, fmt.Errorf("expected exactly one statement, got 0")
	}
	st, err := p.parseStatement()
	if err != nil {
		return nil, 0, err
	}
	for p.peek().Type == SEMI {
		p.next()
	}
	if p.peek().Type != EOF {
		return nil, 0, p.errf("unexpected %s after statement", p.describe())
	}
	return st, p.params, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(input string) ([]Statement, error) {
	toks, err := Tokens(input)
	if err != nil {
		return nil, err
	}
	p := &Parser{src: input, toks: toks}
	var out []Statement
	for {
		for p.peek().Type == SEMI {
			p.next()
		}
		if p.peek().Type == EOF {
			break
		}
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		switch p.peek().Type {
		case SEMI, EOF:
		default:
			return nil, p.errf("unexpected %s after statement", p.describe())
		}
	}
	return out, nil
}

// ParseExpr parses a standalone scalar expression (used by tests and tools).
func ParseExpr(input string) (Expr, error) {
	toks, err := Tokens(input)
	if err != nil {
		return nil, err
	}
	p := &Parser{src: input, toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().Type != EOF {
		return nil, p.errf("unexpected %s after expression", p.describe())
	}
	return e, nil
}

func (p *Parser) peek() Token  { return p.toks[p.pos] }
func (p *Parser) peek2() Token { return p.toks[min(p.pos+1, len(p.toks)-1)] }
func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) describe() string {
	t := p.peek()
	if t.Type == EOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

func (p *Parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("%s: %s", position(p.src, p.peek().Off), fmt.Sprintf(format, args...))
}

// isKeyword reports whether the current token is the given keyword.
func (p *Parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.Type == IDENT && t.Text == kw
}

// acceptTxnNoise consumes the optional TRANSACTION/WORK noise word after
// BEGIN, COMMIT, ROLLBACK and their aliases.
func (p *Parser) acceptTxnNoise() {
	if !p.acceptKeyword("transaction") {
		p.acceptKeyword("work")
	}
}

// acceptKeyword consumes the keyword if present.
func (p *Parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.next()
		return true
	}
	return false
}

// expectKeyword consumes the keyword or fails.
func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, found %s", strings.ToUpper(kw), p.describe())
	}
	return nil
}

func (p *Parser) accept(tt TokenType) bool {
	if p.peek().Type == tt {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(tt TokenType) (Token, error) {
	if p.peek().Type == tt {
		return p.next(), nil
	}
	return Token{}, p.errf("expected %s, found %s", tt, p.describe())
}

// parseIdent accepts an identifier (plain or quoted).
func (p *Parser) parseIdent() (string, error) {
	t := p.peek()
	if t.Type == IDENT || t.Type == QIDENT {
		p.next()
		return t.Text, nil
	}
	return "", p.errf("expected identifier, found %s", p.describe())
}

// --- Statements -------------------------------------------------------------

func (p *Parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Type == LPAREN {
		return p.parseSelectStmt()
	}
	if t.Type != IDENT {
		return nil, p.errf("expected statement, found %s", p.describe())
	}
	switch t.Text {
	case "select", "values":
		return p.parseSelectStmt()
	case "create":
		return p.parseCreate()
	case "drop":
		return p.parseDrop()
	case "insert":
		return p.parseInsert()
	case "delete":
		return p.parseDelete()
	case "update":
		return p.parseUpdate()
	case "explain":
		return p.parseExplain()
	case "set":
		return p.parseSet()
	case "show":
		p.next()
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		return &ShowStmt{Name: name}, nil
	case "begin", "start":
		p.next()
		if t.Text == "start" {
			// START only in the form START TRANSACTION.
			if err := p.expectKeyword("transaction"); err != nil {
				return nil, err
			}
		} else {
			p.acceptTxnNoise()
		}
		return &BeginStmt{}, nil
	case "commit", "end":
		p.next()
		p.acceptTxnNoise()
		return &CommitStmt{}, nil
	case "rollback", "abort":
		p.next()
		p.acceptTxnNoise()
		return &RollbackStmt{}, nil
	case "analyze", "analyse":
		p.next()
		st := &AnalyzeStmt{}
		if p.peek().Type == IDENT && !reservedAlias[p.peek().Text] || p.peek().Type == QIDENT {
			name, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			st.Table = name
		}
		return st, nil
	}
	return nil, p.errf("unsupported statement starting with %q", t.Text)
}

func (p *Parser) parseCreate() (Statement, error) {
	p.next() // create
	switch {
	case p.acceptKeyword("table"):
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if p.acceptKeyword("as") {
			sel, err := p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			return &CreateTableStmt{Name: name, AsSelect: sel}, nil
		}
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		var cols []ColumnDef
		for {
			cname, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			tname, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			cd := ColumnDef{Name: cname, TypeName: tname}
			for {
				if p.acceptKeyword("not") {
					if err := p.expectKeyword("null"); err != nil {
						return nil, err
					}
					cd.NotNull = true
					continue
				}
				if p.acceptKeyword("primary") {
					if err := p.expectKeyword("key"); err != nil {
						return nil, err
					}
					cd.NotNull = true
					continue
				}
				break
			}
			cols = append(cols, cd)
			if p.accept(COMMA) {
				continue
			}
			break
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return &CreateTableStmt{Name: name, Columns: cols}, nil
	case p.acceptKeyword("view"):
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("as"); err != nil {
			return nil, err
		}
		sel, err := p.parseSelectStmt()
		if err != nil {
			return nil, err
		}
		// A copy: the catalog keeps the view, not the script it came in.
		return &CreateViewStmt{Name: name, Select: sel, Text: strings.Clone(sel.Text)}, nil
	}
	return nil, p.errf("expected TABLE or VIEW after CREATE, found %s", p.describe())
}

// parseTypeName parses a (possibly two-word) SQL type name with optional
// length arguments, which the engine ignores.
func (p *Parser) parseTypeName() (string, error) {
	name, err := p.parseIdent()
	if err != nil {
		return "", err
	}
	if name == "double" && p.acceptKeyword("precision") {
		name = "double precision"
	}
	if name == "character" && p.acceptKeyword("varying") {
		name = "character varying"
	}
	if p.accept(LPAREN) {
		for p.peek().Type == NUMBER || p.peek().Type == COMMA {
			p.next()
		}
		if _, err := p.expect(RPAREN); err != nil {
			return "", err
		}
	}
	return name, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	p.next() // drop
	st := &DropStmt{}
	switch {
	case p.acceptKeyword("table"):
	case p.acceptKeyword("view"):
		st.View = true
	default:
		return nil, p.errf("expected TABLE or VIEW after DROP, found %s", p.describe())
	}
	if p.acceptKeyword("if") {
		if err := p.expectKeyword("exists"); err != nil {
			return nil, err
		}
		st.IfExists = true
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	st.Name = name
	return st, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	p.next() // insert
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: name}
	if p.peek().Type == LPAREN {
		// Could be a column list or INSERT INTO t (SELECT ...). Disambiguate
		// on the token after '('.
		if !(p.peek2().Type == IDENT && p.peek2().Text == "select") {
			p.next()
			for {
				col, err := p.parseIdent()
				if err != nil {
					return nil, err
				}
				st.Columns = append(st.Columns, col)
				if p.accept(COMMA) {
					continue
				}
				break
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
		}
	}
	if p.isKeyword("values") {
		if st.Rows, err = p.parseValuesRows(); err != nil {
			return nil, err
		}
		return st, nil
	}
	sel, err := p.parseSelectStmt()
	if err != nil {
		return nil, err
	}
	st.Select = sel
	return st, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.next() // delete
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: name}
	if p.acceptKeyword("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.next() // update
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("set"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: name}
	for {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(EQ); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, UpdateSet{Column: col, Expr: e})
		if p.accept(COMMA) {
			continue
		}
		break
	}
	if p.acceptKeyword("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *Parser) parseExplain() (Statement, error) {
	p.next() // explain
	st := &ExplainStmt{}
	if p.acceptKeyword("analyze") || p.acceptKeyword("analyse") {
		st.Analyze = true
	}
	off := p.peek().Off
	var err error
	if t := p.peek().Text; p.isKeyword("insert") || p.isKeyword("update") || p.isKeyword("delete") {
		// Routing reads EXPLAIN as a read, so it must not write.
		if st.Analyze {
			return nil, p.errf("EXPLAIN ANALYZE would run the %s: EXPLAIN a write without ANALYZE", strings.ToUpper(t))
		}
		st.Target, err = p.parseStatement()
	} else {
		st.Target, err = p.parseSelectStmt()
	}
	if err != nil {
		return nil, err
	}
	st.Text = p.src[off:p.toks[p.pos-1].End]
	return st, nil
}

func (p *Parser) parseSet() (Statement, error) {
	p.next() // set
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(EQ); err != nil {
		if !p.acceptKeyword("to") {
			return nil, err
		}
	}
	t := p.peek()
	switch t.Type {
	case STRING, IDENT, NUMBER:
		p.next()
		return &SetStmt{Name: name, Value: t.Text}, nil
	}
	return nil, p.errf("expected value after SET %s, found %s", name, p.describe())
}

// --- SELECT -----------------------------------------------------------------

func (p *Parser) parseSelectStmt() (*SelectStmt, error) {
	off := p.peek().Off
	body, err := p.parseQueryBody()
	if err != nil {
		return nil, err
	}
	st := &SelectStmt{Body: body}
	if p.acceptKeyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("desc") {
				item.Desc = true
			} else {
				p.acceptKeyword("asc")
			}
			st.OrderBy = append(st.OrderBy, item)
			if p.accept(COMMA) {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("limit") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Limit = e
	}
	if p.acceptKeyword("offset") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Offset = e
	}
	st.Text = p.src[off:p.toks[p.pos-1].End]
	return st, nil
}

// parseQueryBody handles UNION/EXCEPT (left-associative); INTERSECT binds
// tighter, as in standard SQL.
func (p *Parser) parseQueryBody() (QueryBody, error) {
	left, err := p.parseQueryTerm()
	if err != nil {
		return nil, err
	}
	for {
		var op SetOpType
		switch {
		case p.isKeyword("union"):
			op = Union
		case p.isKeyword("except"):
			op = Except
		default:
			return left, nil
		}
		p.next()
		all := p.acceptKeyword("all")
		if !all {
			p.acceptKeyword("distinct")
		}
		right, err := p.parseQueryTerm()
		if err != nil {
			return nil, err
		}
		left = &SetOpBody{Op: op, All: all, Left: left, Right: right}
	}
}

func (p *Parser) parseQueryTerm() (QueryBody, error) {
	left, err := p.parseQueryPrimary()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("intersect") {
		p.next()
		all := p.acceptKeyword("all")
		if !all {
			p.acceptKeyword("distinct")
		}
		right, err := p.parseQueryPrimary()
		if err != nil {
			return nil, err
		}
		left = &SetOpBody{Op: Intersect, All: all, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseQueryPrimary() (QueryBody, error) {
	if p.accept(LPAREN) {
		st, err := p.parseSelectStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		if len(st.OrderBy) > 0 || st.Limit != nil || st.Offset != nil {
			return nil, fmt.Errorf("ORDER BY/LIMIT inside a set-operation branch is not supported")
		}
		return st.Body, nil
	}
	if p.isKeyword("values") {
		return p.parseValuesBody()
	}
	return p.parseSelectCore()
}

// parseValuesBody parses a standalone VALUES (..),(..): it desugars to a
// UNION ALL of FROM-less selects.
func (p *Parser) parseValuesBody() (QueryBody, error) {
	rows, err := p.parseValuesRows()
	if err != nil {
		return nil, err
	}
	var out QueryBody
	for _, row := range rows {
		core := &SelectCore{}
		for i, e := range row {
			core.Items = append(core.Items, SelectItem{Expr: e, Alias: fmt.Sprintf("column%d", i+1)})
		}
		if out == nil {
			out = core
		} else {
			out = &SetOpBody{Op: Union, All: true, Left: out, Right: core}
		}
	}
	return out, nil
}

// parseValuesRows parses VALUES and its row lists: (e, ...), (e, ...).
func (p *Parser) parseValuesRows() ([][]Expr, error) {
	p.next() // values
	var rows [][]Expr
	for {
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(COMMA) {
				break
			}
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if !p.accept(COMMA) {
			return rows, nil
		}
	}
}

func (p *Parser) parseSelectCore() (*SelectCore, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	core := &SelectCore{}
	// SQL-PLE: SELECT PROVENANCE [ON CONTRIBUTION (INFLUENCE|COPY)]
	if p.isKeyword("provenance") {
		p.next()
		core.Provenance = true
		if p.acceptKeyword("on") {
			if err := p.expectKeyword("contribution"); err != nil {
				return nil, err
			}
			if _, err := p.expect(LPAREN); err != nil {
				return nil, err
			}
			sem, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			switch sem {
			case "influence":
				core.Contribution = Influence
			case "copy":
				core.Contribution = Copy
				if p.acceptKeyword("partial") {
					core.Contribution = Copy
				} else if p.acceptKeyword("complete") {
					core.Contribution = CopyComplete
				}
			default:
				return nil, fmt.Errorf("unknown contribution semantics %q (want INFLUENCE or COPY [PARTIAL|COMPLETE])", sem)
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
		}
	}
	if p.acceptKeyword("distinct") {
		core.Distinct = true
	} else {
		p.acceptKeyword("all")
	}
	// Select list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		core.Items = append(core.Items, item)
		if p.accept(COMMA) {
			continue
		}
		break
	}
	if p.acceptKeyword("from") {
		for {
			te, err := p.parseTableExpr()
			if err != nil {
				return nil, err
			}
			core.From = append(core.From, te)
			if p.accept(COMMA) {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Where = e
	}
	if p.acceptKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			core.GroupBy = append(core.GroupBy, e)
			if p.accept(COMMA) {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("having") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Having = e
	}
	return core, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.peek().Type == STAR {
		p.next()
		return SelectItem{Star: true}, nil
	}
	// t.* form
	if (p.peek().Type == IDENT && !reservedAlias[p.peek().Text] || p.peek().Type == QIDENT) &&
		p.peek2().Type == DOT {
		save := p.pos
		tbl := p.next().Text
		p.next() // dot
		if p.peek().Type == STAR {
			p.next()
			return SelectItem{Star: true, TableStar: tbl}, nil
		}
		p.pos = save
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("as") {
		a, err := p.parseIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if t := p.peek(); (t.Type == IDENT && !reservedAlias[t.Text]) || t.Type == QIDENT {
		p.next()
		item.Alias = t.Text
	}
	return item, nil
}

// --- FROM items ---------------------------------------------------------------

// parseTableExpr parses one FROM-list element, including chained joins.
func (p *Parser) parseTableExpr() (TableExpr, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var kind JoinKind
		switch {
		case p.isKeyword("join") || p.isKeyword("inner"):
			p.acceptKeyword("inner")
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
			kind = InnerJoin
		case p.isKeyword("left"):
			p.next()
			p.acceptKeyword("outer")
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
			kind = LeftJoin
		case p.isKeyword("right"):
			p.next()
			p.acceptKeyword("outer")
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
			kind = RightJoin
		case p.isKeyword("full"):
			p.next()
			p.acceptKeyword("outer")
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
			kind = FullJoin
		case p.isKeyword("cross"):
			p.next()
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
			kind = CrossJoin
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		je := &JoinExpr{Kind: kind, Left: left, Right: right}
		if kind != CrossJoin {
			switch {
			case p.acceptKeyword("on"):
				cond, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				je.On = cond
			case p.acceptKeyword("using"):
				if _, err := p.expect(LPAREN); err != nil {
					return nil, err
				}
				for {
					col, err := p.parseIdent()
					if err != nil {
						return nil, err
					}
					je.Using = append(je.Using, col)
					if p.accept(COMMA) {
						continue
					}
					break
				}
				if _, err := p.expect(RPAREN); err != nil {
					return nil, err
				}
			default:
				return nil, p.errf("expected ON or USING after JOIN, found %s", p.describe())
			}
		}
		left = je
	}
}

func (p *Parser) parseTablePrimary() (TableExpr, error) {
	if p.accept(LPAREN) {
		// Either a parenthesized join or a derived table.
		if p.isKeyword("select") || p.isKeyword("values") || p.peek().Type == LPAREN && p.looksLikeSubquery() {
			sel, err := p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			ref := &SubqueryRef{Select: sel}
			if err := p.parseFromItemSuffix(&ref.Alias, &ref.Prov); err != nil {
				return nil, err
			}
			return ref, nil
		}
		te, err := p.parseTableExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return te, nil
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	// Optional schema qualification "public.t" — the engine is single-schema,
	// so the qualifier is accepted and dropped (kept for Figure 4 fidelity).
	if p.peek().Type == DOT {
		p.next()
		n2, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		name = n2
	}
	ref := &TableRef{Name: name}
	if err := p.parseFromItemSuffix(&ref.Alias, &ref.Prov); err != nil {
		return nil, err
	}
	return ref, nil
}

// looksLikeSubquery peeks through nested parens for SELECT/VALUES.
func (p *Parser) looksLikeSubquery() bool {
	i := p.pos
	for i < len(p.toks) && p.toks[i].Type == LPAREN {
		i++
	}
	return i < len(p.toks) && p.toks[i].Type == IDENT &&
		(p.toks[i].Text == "select" || p.toks[i].Text == "values")
}

// parseFromItemSuffix parses [AS] alias and the SQL-PLE annotations
// BASERELATION and PROVENANCE (attrs), which may appear in either order
// after the alias.
func (p *Parser) parseFromItemSuffix(alias *string, prov *ProvSpec) error {
	if p.acceptKeyword("as") {
		a, err := p.parseIdent()
		if err != nil {
			return err
		}
		*alias = a
	} else if t := p.peek(); (t.Type == IDENT && !reservedAlias[t.Text]) || t.Type == QIDENT {
		p.next()
		*alias = t.Text
	}
	for {
		switch {
		case p.acceptKeyword("baserelation"):
			prov.BaseRelation = true
		case p.isKeyword("provenance"):
			p.next()
			if _, err := p.expect(LPAREN); err != nil {
				return err
			}
			prov.HasProvAttrs = true
			for {
				a, err := p.parseIdent()
				if err != nil {
					return err
				}
				prov.ProvAttrs = append(prov.ProvAttrs, a)
				if p.accept(COMMA) {
					continue
				}
				break
			}
			if _, err := p.expect(RPAREN); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

// --- Expressions --------------------------------------------------------------

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("and") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("not") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "not", E: e}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.peek().Type {
		case EQ:
			op = OpEq
		case NEQ:
			op = OpNeq
		case LT:
			op = OpLt
		case LTE:
			op = OpLte
		case GT:
			op = OpGt
		case GTE:
			op = OpGte
		default:
			// Keyword-introduced comparison forms.
			switch {
			case p.isKeyword("is"):
				p.next()
				not := p.acceptKeyword("not")
				switch {
				case p.acceptKeyword("null"):
					left = &IsNullExpr{E: left, Not: not}
					continue
				case p.acceptKeyword("distinct"):
					if err := p.expectKeyword("from"); err != nil {
						return nil, err
					}
					right, err := p.parseAdditive()
					if err != nil {
						return nil, err
					}
					nd := &BinExpr{Op: OpNotDistinct, L: left, R: right}
					if not {
						left = nd
					} else {
						left = &UnaryExpr{Op: "not", E: nd}
					}
					continue
				case p.acceptKeyword("true"):
					eq := &BinExpr{Op: OpNotDistinct, L: left, R: &Literal{Val: value.NewBool(true)}}
					if not {
						left = &UnaryExpr{Op: "not", E: eq}
					} else {
						left = eq
					}
					continue
				case p.acceptKeyword("false"):
					eq := &BinExpr{Op: OpNotDistinct, L: left, R: &Literal{Val: value.NewBool(false)}}
					if not {
						left = &UnaryExpr{Op: "not", E: eq}
					} else {
						left = eq
					}
					continue
				}
				return nil, p.errf("expected NULL, DISTINCT FROM, TRUE or FALSE after IS")
			case p.isKeyword("in") || (p.isKeyword("not") && p.peek2().Text == "in"):
				not := p.acceptKeyword("not")
				p.next() // in
				return p.parseInTail(left, not)
			case p.isKeyword("between") || (p.isKeyword("not") && p.peek2().Text == "between"):
				not := p.acceptKeyword("not")
				p.next() // between
				lo, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				if err := p.expectKeyword("and"); err != nil {
					return nil, err
				}
				hi, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = &BetweenExpr{E: left, Lo: lo, Hi: hi, Not: not}
				continue
			case p.isKeyword("like") || (p.isKeyword("not") && p.peek2().Text == "like"):
				not := p.acceptKeyword("not")
				p.next() // like
				pat, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = &LikeExpr{E: left, Pattern: pat, Not: not}
				continue
			}
			return left, nil
		}
		p.next()
		// Quantified comparison: expr op ANY|SOME|ALL (subquery).
		if p.isKeyword("any") || p.isKeyword("some") || p.isKeyword("all") {
			all := p.peek().Text == "all"
			p.next()
			if _, err := p.expect(LPAREN); err != nil {
				return nil, err
			}
			sel, err := p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			left = &QuantifiedExpr{Op: op, E: left, Subquery: sel, All: all}
			continue
		}
		// Plain comparison; a parenthesized SELECT on the right parses
		// naturally as a scalar subquery via parsePrimary.
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: op, L: left, R: right}
	}
}

func (p *Parser) parseInTail(left Expr, not bool) (Expr, error) {
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	if p.isKeyword("select") || p.isKeyword("values") {
		sel, err := p.parseSelectStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return &InExpr{E: left, Subquery: sel, Not: not}, nil
	}
	in := &InExpr{E: left, Not: not}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		in.List = append(in.List, e)
		if p.accept(COMMA) {
			continue
		}
		break
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.peek().Type {
		case PLUS:
			op = OpAdd
		case MINUS:
			op = OpSub
		case CONCAT:
			op = OpConcat
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: op, L: left, R: right}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.peek().Type {
		case STAR:
			op = OpMul
		case SLASH:
			op = OpDiv
		case PERCENT:
			op = OpMod
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: op, L: left, R: right}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	switch p.peek().Type {
	case MINUS:
		p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Literal); ok && (lit.Val.Kind() == value.KindInt || lit.Val.Kind() == value.KindFloat) {
			nv, _ := value.Neg(lit.Val)
			return &Literal{Val: nv}, nil
		}
		return &UnaryExpr{Op: "-", E: e}, nil
	case PLUS:
		p.next()
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Type {
	case NUMBER:
		p.next()
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.Text)
			}
			return &Literal{Val: value.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t.Text, 64)
			if ferr != nil {
				return nil, p.errf("bad number %q", t.Text)
			}
			return &Literal{Val: value.NewFloat(f)}, nil
		}
		return &Literal{Val: value.NewInt(i)}, nil
	case STRING:
		p.next()
		return &Literal{Val: value.NewString(t.Text)}, nil
	case QMARK:
		p.next()
		ph := &Placeholder{Index: p.params}
		p.params++
		return ph, nil
	case LPAREN:
		p.next()
		if p.isKeyword("select") || p.isKeyword("values") {
			sel, err := p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			return &SubqueryExpr{Select: sel}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return e, nil
	case IDENT, QIDENT:
		switch t.Text {
		case "null":
			p.next()
			return &Literal{Val: value.Null}, nil
		case "true":
			p.next()
			return &Literal{Val: value.NewBool(true)}, nil
		case "false":
			p.next()
			return &Literal{Val: value.NewBool(false)}, nil
		case "case":
			return p.parseCase()
		case "cast":
			p.next()
			if _, err := p.expect(LPAREN); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("as"); err != nil {
				return nil, err
			}
			tn, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			return &CastExpr{E: e, TypeName: tn}, nil
		case "exists":
			p.next()
			if _, err := p.expect(LPAREN); err != nil {
				return nil, err
			}
			sel, err := p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			return &ExistsExpr{Subquery: sel}, nil
		}
		if t.Type == IDENT && reservedAlias[t.Text] {
			return nil, p.errf("unexpected keyword %q in expression", t.Text)
		}
		p.next()
		name := t.Text
		// Function call?
		if p.peek().Type == LPAREN && t.Type == IDENT {
			p.next()
			fc := &FuncCall{Name: name}
			if p.peek().Type == STAR {
				p.next()
				fc.Star = true
				if _, err := p.expect(RPAREN); err != nil {
					return nil, err
				}
				return fc, nil
			}
			if p.peek().Type == RPAREN {
				p.next()
				return fc, nil
			}
			if p.acceptKeyword("distinct") {
				fc.Distinct = true
			}
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fc.Args = append(fc.Args, e)
				if p.accept(COMMA) {
					continue
				}
				break
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			return fc, nil
		}
		// Qualified column?
		if p.peek().Type == DOT {
			p.next()
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			// Possibly schema.table.column; treat first part as schema and drop.
			if p.peek().Type == DOT {
				p.next()
				col2, err := p.parseIdent()
				if err != nil {
					return nil, err
				}
				return &ColRef{Table: col, Name: col2}, nil
			}
			return &ColRef{Table: name, Name: col}, nil
		}
		return &ColRef{Name: name}, nil
	}
	return nil, p.errf("expected expression, found %s", p.describe())
}

func (p *Parser) parseCase() (Expr, error) {
	p.next() // case
	ce := &CaseExpr{}
	if !p.isKeyword("when") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = op
	}
	for p.acceptKeyword("when") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("then"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, CaseWhen{Cond: cond, Result: res})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN arm")
	}
	if p.acceptKeyword("else") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKeyword("end"); err != nil {
		return nil, err
	}
	return ce, nil
}
