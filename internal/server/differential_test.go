package server

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"perm/internal/engine"
	"perm/internal/value"
	"perm/internal/wire"
	"perm/internal/workload"
)

// The differential harness runs the provenance query suite through every
// execution path the system has and asserts byte-identical results:
//
//   - embedded:       engine Session.Execute (materialized drain wrapper)
//   - embedded-prep:  engine Session.Prepare + streaming Rows (typed binds)
//   - wire-inline:    a one-shot Execute (SQL in the frame), at every fetch
//     size in differentialFetchSizes: 0 streams to Complete, 1 and 7 cross
//     many Fetch round trips, 512 is the driver's
//   - wire-prepared:  a server-side prepared statement executed by name, at
//     the same fetch sizes
//
// It extends PR 3's assertIdentical: same rendered-result comparison, but
// across execution paths of one database instead of across replicas.

// differentialFetchSizes are the fetch sizes every wire path runs at.
var differentialFetchSizes = []int{0, 1, 7, 512}

// differentialSuite is the unparameterized battery (the replication suite's
// provenance coverage, verbatim).
var differentialSuite = replicationSuite

// paramCase pairs a parameterized statement with bind arguments and the
// equivalent literal SQL. The bind paths must match the literal text run
// embedded — that is the "binds travel as typed wire parameters and results
// are identical to the interpolated path" guarantee.
type paramCase struct {
	sql     string
	args    []value.Value
	literal string
}

var paramSuite = []paramCase{
	{
		sql:     `SELECT PROVENANCE mId, text FROM messages WHERE mId > ? ORDER BY mId`,
		args:    []value.Value{value.NewInt(1)},
		literal: `SELECT PROVENANCE mId, text FROM messages WHERE mId > 1 ORDER BY mId`,
	},
	{
		sql:     `SELECT PROVENANCE name FROM users u, messages m WHERE u.uId = m.uId AND name <> ? ORDER BY name`,
		args:    []value.Value{value.NewString("nobody")},
		literal: `SELECT PROVENANCE name FROM users u, messages m WHERE u.uId = m.uId AND name <> 'nobody' ORDER BY name`,
	},
	{
		sql:     `SELECT mId, text FROM messages WHERE text LIKE ? ORDER BY mId`,
		args:    []value.Value{value.NewString("%a%")},
		literal: `SELECT mId, text FROM messages WHERE text LIKE '%a%' ORDER BY mId`,
	},
	{
		sql:     `SELECT PROVENANCE uId, count(*) FROM approved WHERE uId >= ? GROUP BY uId HAVING count(*) >= ? ORDER BY uId`,
		args:    []value.Value{value.NewInt(0), value.NewInt(1)},
		literal: `SELECT PROVENANCE uId, count(*) FROM approved WHERE uId >= 0 GROUP BY uId HAVING count(*) >= 1 ORDER BY uId`,
	},
	{
		sql:     `SELECT mId, ? FROM messages WHERE mId IN (?, ?) ORDER BY mId`,
		args:    []value.Value{value.NewString("tag"), value.NewInt(1), value.NewInt(3)},
		literal: `SELECT mId, 'tag' FROM messages WHERE mId IN (1, 3) ORDER BY mId`,
	},
	{
		sql:     `SELECT PROVENANCE mId FROM messages WHERE mId > ANY (SELECT mId FROM approved WHERE uId <> ?) ORDER BY mId`,
		args:    []value.Value{value.NewInt(99)},
		literal: `SELECT PROVENANCE mId FROM messages WHERE mId > ANY (SELECT mId FROM approved WHERE uId <> 99) ORDER BY mId`,
	},
	{
		sql:     `SELECT CASE WHEN mId = ? THEN ? ELSE NULL END FROM messages ORDER BY mId`,
		args:    []value.Value{value.NewInt(2), value.NewFloat(2.5)},
		literal: `SELECT CASE WHEN mId = 2 THEN 2.5 ELSE NULL END FROM messages ORDER BY mId`,
	},
}

// renderWire flattens a wire result (desc + rows + tag) in exactly the
// renderResult format, so the two sides compare byte for byte.
func renderWire(desc wire.RowDesc, rows []value.Row, tag string) string {
	var b strings.Builder
	for i, c := range desc.Names {
		fmt.Fprintf(&b, "%s|", c)
		fmt.Fprintf(&b, "%s|%v|", desc.Kinds[i], desc.IsProv[i])
	}
	b.WriteString("\n")
	for _, row := range rows {
		for _, v := range row {
			b.WriteString(v.SQLLiteral())
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString(tag)
	return b.String()
}

// renderEngineResult is renderResult plus the command tag.
func renderEngineResult(res *engine.Result) string {
	return renderResult(res) + res.Tag
}

// drainCursor collects a wire cursor.
func drainCursor(t *testing.T, cur *wire.Cursor) (wire.RowDesc, []value.Row, string) {
	t.Helper()
	var rows []value.Row
	for {
		row, err := cur.Next()
		if err != nil {
			t.Fatalf("cursor next: %v", err)
		}
		if row == nil {
			break
		}
		rows = append(rows, row)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("cursor close: %v", err)
	}
	return cur.Desc, rows, cur.Complete.Tag
}

// assertWirePaths runs sql over the wire both ways a statement travels — a
// one-shot Execute with the SQL inline, and a server-side prepared statement
// executed by name — at every fetch size, and requires each rendering to be
// want. After the first run both hit the session plan cache, keyed on text +
// parameter kinds.
func assertWirePaths(t *testing.T, c *wire.Client, name, sql string, args []value.Value, want string) {
	t.Helper()
	if n, err := c.Prepare(name, sql); err != nil || n != len(args) {
		t.Fatalf("wire prepare %q: n=%d err=%v", sql, n, err)
	}
	for _, fetch := range differentialFetchSizes {
		for _, stmt := range []string{"", name} {
			inline := sql
			if stmt != "" {
				inline = ""
			}
			cur, err := c.Execute(stmt, inline, args, fetch)
			if err != nil {
				t.Fatalf("wire %q as %q fetch %d: %v", sql, stmt, fetch, err)
			}
			desc, rows, tag := drainCursor(t, cur)
			if got := renderWire(desc, rows, tag); got != want {
				t.Fatalf("wire diverged on %q as %q fetch %d:\nwant:\n%s\ngot:\n%s", sql, stmt, fetch, want, got)
			}
		}
	}
	if err := c.CloseStmt(name); err != nil {
		t.Fatalf("close stmt: %v", err)
	}
}

func TestDifferentialSuite(t *testing.T) {
	db := engine.NewDB()
	if err := workload.LoadPaperExample(db); err != nil {
		t.Fatal(err)
	}
	addr, srv, shutdown := startServerSrv(t, db, Config{CursorBatchRows: 3})
	defer shutdown()

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	sess := db.NewSession()
	defer sess.Close()

	for i, q := range differentialSuite {
		res, err := sess.Execute(q)
		if err != nil {
			t.Fatalf("embedded %q: %v", q, err)
		}
		want := renderEngineResult(res)

		// Embedded streaming path (Session.Query drained by hand).
		erows, err := sess.Query(q)
		if err != nil {
			t.Fatalf("embedded stream %q: %v", q, err)
		}
		var streamed []value.Row
		for {
			row, err := erows.Next()
			if err != nil {
				t.Fatalf("embedded stream next %q: %v", q, err)
			}
			if row == nil {
				break
			}
			streamed = append(streamed, row)
		}
		got := renderEngineResult(&engine.Result{Columns: erows.Columns, Schema: erows.Schema, Rows: streamed, Tag: erows.Tag()})
		if got != want {
			t.Fatalf("embedded stream diverged on %q:\nwant:\n%s\ngot:\n%s", q, want, got)
		}

		assertWirePaths(t, c, fmt.Sprintf("dq%d", i), q, nil, want)
	}
	if n := srv.ActivePortals(); n != 0 {
		t.Fatalf("portals leaked: %d", n)
	}
}

func TestDifferentialParams(t *testing.T) {
	db := engine.NewDB()
	if err := workload.LoadPaperExample(db); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, db, Config{CursorBatchRows: 2})
	defer shutdown()

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	sess := db.NewSession()
	defer sess.Close()

	for i, pc := range paramSuite {
		res, err := sess.Execute(pc.literal)
		if err != nil {
			t.Fatalf("literal %q: %v", pc.literal, err)
		}
		want := renderEngineResult(res)

		// Engine-level binds (embedded prepared statement).
		prep, err := sess.Prepare(pc.sql)
		if err != nil {
			t.Fatalf("engine prepare %q: %v", pc.sql, err)
		}
		if got := prep.NumParams(); got != len(pc.args) {
			t.Fatalf("engine prepare %q: %d params, want %d", pc.sql, got, len(pc.args))
		}
		pres, err := prep.Exec(pc.args...)
		if err != nil {
			t.Fatalf("engine bind exec %q: %v", pc.sql, err)
		}
		if got := renderEngineResult(pres); got != want {
			t.Fatalf("engine binds diverged on %q:\nwant:\n%s\ngot:\n%s", pc.sql, want, got)
		}

		assertWirePaths(t, c, fmt.Sprintf("pq%d", i), pc.sql, pc.args, want)
	}
}

// TestDifferentialErrors holds the failing half of the contract: a statement
// that fails — before its first frame, mid-stream after rows were delivered,
// or with a typed code — delivers the same row prefix and the same error,
// message and code, inline and by name at every fetch size as the embedded
// stream does.
func TestDifferentialErrors(t *testing.T) {
	db := engine.NewDB()
	if err := workload.LoadPaperExample(db); err != nil {
		t.Fatal(err)
	}
	addr, srv, shutdown := startServerSrv(t, db, Config{CursorBatchRows: 3})
	defer shutdown()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	sess := db.NewSession()
	defer sess.Close()

	// collect drains next up to the error, returning the prefix and the error.
	collect := func(next func() (value.Row, error)) ([]value.Row, error) {
		var rows []value.Row
		for {
			row, err := next()
			if err != nil || row == nil {
				return rows, err
			}
			rows = append(rows, row)
		}
	}
	cases := []struct {
		sql      string
		args     []value.Value
		code     uint64
		readOnly bool
	}{
		{sql: `SELECT nope FROM missing`},
		{sql: `SELECT mId, 10 / (mId - 4) FROM messages`},
		{sql: `SELECT PROVENANCE mId, 10 / (mId - ?) FROM messages`, args: []value.Value{value.NewInt(4)}},
		{sql: `SELECT mId FROM messages WHERE mId = ?`}, // one placeholder, no argument
		{sql: `INSERT INTO messages VALUES (?, 'x', 1)`, args: []value.Value{value.NewInt(9)}, code: wire.ErrCodeReadOnly, readOnly: true},
	}
	for i, tc := range cases {
		db.SetReadOnly(tc.readOnly)
		var wantRows []value.Row
		erows, wantErr := sess.Query(tc.sql, tc.args...)
		if wantErr == nil {
			wantRows, wantErr = collect(erows.Next)
			erows.Close()
		}
		if wantErr == nil {
			t.Fatalf("embedded %q: want an error", tc.sql)
		}
		want := renderWire(wire.RowDesc{}, wantRows, wantErr.Error())

		name := fmt.Sprintf("eq%d", i)
		if _, err := c.Prepare(name, tc.sql); err != nil {
			t.Fatalf("prepare %q: %v", tc.sql, err)
		}
		for _, fetch := range differentialFetchSizes {
			for _, named := range []bool{false, true} {
				var cur *wire.Cursor
				var err error
				if named {
					cur, err = c.Execute(name, "", tc.args, fetch)
				} else {
					cur, err = c.Execute("", tc.sql, tc.args, fetch)
				}
				var rows []value.Row
				if err == nil {
					rows, err = collect(cur.Next)
					cur.Close()
				}
				se, ok := err.(*wire.ServerError)
				if !ok {
					t.Fatalf("%q fetch %d named %v: error %T %v, want *wire.ServerError", tc.sql, fetch, named, err, err)
				}
				if got := renderWire(wire.RowDesc{}, rows, se.Message); got != want || se.Code != tc.code {
					t.Fatalf("%q fetch %d named %v diverged (code %d, want %d):\nwant:\n%s\ngot:\n%s",
						tc.sql, fetch, named, se.Code, tc.code, want, got)
				}
			}
		}
		if i == 1 && len(wantRows) == 0 {
			t.Fatalf("%q failed before its first row; the case is meant to fail mid-stream", tc.sql)
		}
		// The connection is still in sync after every failure.
		if done, err := c.ExecuteDrain("", `SELECT 1`, nil); err != nil || done.Tag != "SELECT 1" {
			t.Fatalf("after %q: %+v, %v", tc.sql, done, err)
		}
	}
	if n := srv.ActivePortals(); n != 0 {
		t.Fatalf("portals leaked: %d", n)
	}
}

// TestDifferentialDML proves DML binds mutate identically to literal DML:
// the same statements run with binds over the wire against one database and
// as literals embedded against another, then every table must render
// byte-identically (assertIdentical, PR 3's comparator).
func TestDifferentialDML(t *testing.T) {
	bindDB := engine.NewDB()
	litDB := engine.NewDB()
	for _, db := range []*engine.DB{bindDB, litDB} {
		if err := workload.LoadPaperExample(db); err != nil {
			t.Fatal(err)
		}
	}
	addr, shutdown := startServer(t, bindDB, Config{})
	defer shutdown()

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	litSess := litDB.NewSession()
	defer litSess.Close()

	type dml struct {
		sql     string
		args    []value.Value
		literal string
	}
	steps := []dml{
		{
			sql:     `INSERT INTO messages VALUES (?, ?, ?)`,
			args:    []value.Value{value.NewInt(9), value.NewString("bound insert"), value.NewInt(1)},
			literal: `INSERT INTO messages VALUES (9, 'bound insert', 1)`,
		},
		{
			sql:     `UPDATE users SET name = ? WHERE uId = ?`,
			args:    []value.Value{value.NewString("Bound Bertha"), value.NewInt(1)},
			literal: `UPDATE users SET name = 'Bound Bertha' WHERE uId = 1`,
		},
		{
			sql:     `DELETE FROM approved WHERE mId = ?`,
			args:    []value.Value{value.NewInt(2)},
			literal: `DELETE FROM approved WHERE mId = 2`,
		},
		{
			sql:     `INSERT INTO imports (mId, text) SELECT mId + ?, text FROM messages WHERE mId = ?`,
			args:    []value.Value{value.NewInt(100), value.NewInt(9)},
			literal: `INSERT INTO imports (mId, text) SELECT mId + 100, text FROM messages WHERE mId = 9`,
		},
	}
	for _, st := range steps {
		done, err := c.Execute("", st.sql, st.args, 0)
		if err != nil {
			t.Fatalf("bind dml %q: %v", st.sql, err)
		}
		if err := done.Close(); err != nil {
			t.Fatalf("bind dml close %q: %v", st.sql, err)
		}
		lres, err := litSess.Execute(st.literal)
		if err != nil {
			t.Fatalf("literal dml %q: %v", st.literal, err)
		}
		if done.Complete.Tag != lres.Tag {
			t.Fatalf("dml %q: bind tag %q, literal tag %q", st.sql, done.Complete.Tag, lres.Tag)
		}
	}
	assertIdentical(t, bindDB, litDB, append(replicationSuite,
		`SELECT * FROM imports ORDER BY mId, text`,
		`SELECT PROVENANCE * FROM messages ORDER BY mId`,
	))
}

// --- property-based forced-spill differential ------------------------------------
//
// A seeded random-query generator covering every blocking operator — ORDER BY
// with multiple asc/desc keys, GROUP BY with plain and DISTINCT aggregates
// (and HAVING), INTERSECT/EXCEPT/UNION in ALL and DISTINCT flavors, DISTINCT
// projection — each query optionally under a provenance rewrite. Every query
// runs twice against the same database: once with the default (generous)
// work_mem and once with a tiny budget that forces every blocking operator to
// spill. Results must be byte-identical, including row order for queries with
// no ORDER BY at all (the spill paths preserve the in-memory emission order).
// The seed is logged so a failure reproduces with PERM_SPILL_SEED=<seed>.

// spillPropertyWorkMem forces spilling while the per-operator progress
// floors keep file counts sane.
const spillPropertyWorkMem = 4096

// spillGen generates random-but-valid SQL over two fixed-schema tables
// r1(a int, b int, c text, d float) and r2 (same schema).
type spillGen struct {
	rng *rand.Rand
}

func (g *spillGen) pick(opts ...string) string { return opts[g.rng.Intn(len(opts))] }

func (g *spillGen) table() string { return g.pick("r1", "r2") }

// where returns a random predicate clause, or "".
func (g *spillGen) where() string {
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprintf(" WHERE a < %d", 50+g.rng.Intn(350))
	case 1:
		return fmt.Sprintf(" WHERE b %% %d = %d", 2+g.rng.Intn(4), g.rng.Intn(2))
	case 2:
		return fmt.Sprintf(" WHERE c <> 'word%d'", g.rng.Intn(30))
	}
	return ""
}

// orderBy returns a multi-key ORDER BY over cols, each key asc or desc.
func (g *spillGen) orderBy(cols ...string) string {
	n := 1 + g.rng.Intn(len(cols))
	g.rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = cols[i] + g.pick("", " ASC", " DESC")
	}
	return " ORDER BY " + strings.Join(keys, ", ")
}

// prov optionally turns the query into a provenance rewrite.
func (g *spillGen) prov() string {
	if g.rng.Intn(5) < 2 {
		return "PROVENANCE "
	}
	return ""
}

func (g *spillGen) query() string {
	switch g.rng.Intn(4) {
	case 0: // multi-key ORDER BY
		return fmt.Sprintf(`SELECT %sa, b, c, d FROM %s%s%s`,
			g.prov(), g.table(), g.where(), g.orderBy("a", "b", "c", "d"))
	case 1: // GROUP BY with plain and DISTINCT aggregates
		agg := g.pick(`count(*), sum(b)`, `count(DISTINCT c), min(b), max(b)`,
			`count(DISTINCT b), avg(d)`, `count(*), count(DISTINCT c), sum(b)`)
		q := fmt.Sprintf(`SELECT %sa, %s FROM %s%s GROUP BY a`,
			g.prov(), agg, g.table(), g.where())
		if g.rng.Intn(2) == 0 {
			q += ` HAVING count(*) >= ` + strconv.Itoa(1+g.rng.Intn(3))
		}
		if g.rng.Intn(2) == 0 {
			q += g.orderBy("a")
		}
		return q
	case 2: // set operations
		op := g.pick("INTERSECT", "INTERSECT ALL", "EXCEPT", "EXCEPT ALL", "UNION", "UNION ALL")
		q := fmt.Sprintf(`SELECT %sa, c FROM r1%s %s SELECT a, c FROM r2%s`,
			g.prov(), g.where(), op, g.where())
		if g.rng.Intn(2) == 0 {
			q += g.orderBy("a", "c")
		}
		return q
	default: // DISTINCT projection
		q := fmt.Sprintf(`SELECT %sDISTINCT a, c FROM %s%s`, g.prov(), g.table(), g.where())
		if g.rng.Intn(2) == 0 {
			q += g.orderBy("a", "c")
		}
		return q
	}
}

// seedSpillTables loads r1/r2 with enough rows (duplicate-heavy keys, NULLs,
// every kind) that a 4 KiB work_mem forces every blocking operator to disk.
func seedSpillTables(t *testing.T, db *engine.DB, rng *rand.Rand) {
	t.Helper()
	s := db.NewSession()
	defer s.Close()
	for _, tbl := range []string{"r1", "r2"} {
		if _, err := s.Execute(fmt.Sprintf(`CREATE TABLE %s (a int, b int, c text, d float)`, tbl)); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for off := 0; off < 2000; off += 500 {
			b.Reset()
			fmt.Fprintf(&b, `INSERT INTO %s VALUES `, tbl)
			for i := 0; i < 500; i++ {
				if i > 0 {
					b.WriteString(", ")
				}
				c := fmt.Sprintf("'word%d'", rng.Intn(30))
				if rng.Intn(20) == 0 {
					c = "NULL"
				}
				d := fmt.Sprintf("%d.5", rng.Intn(400))
				if rng.Intn(20) == 0 {
					d = "NULL"
				}
				fmt.Fprintf(&b, "(%d, %d, %s, %s)", rng.Intn(400), rng.Intn(1000), c, d)
			}
			if _, err := s.Execute(b.String()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestDifferentialSpillProperty(t *testing.T) {
	seeds := []int64{1, 424242}
	if env := os.Getenv("PERM_SPILL_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad PERM_SPILL_SEED %q: %v", env, err)
		}
		seeds = []int64{v}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSpillProperty(t, seed)
		})
	}
}

func runSpillProperty(t *testing.T, seed int64) {
	t.Logf("spill property seed %d (reproduce with PERM_SPILL_SEED=%d)", seed, seed)
	rng := rand.New(rand.NewSource(seed))
	db := engine.NewDB()
	seedSpillTables(t, db, rng)

	wide := db.NewSession()
	defer wide.Close()
	tiny := db.NewSession()
	defer tiny.Close()
	if _, err := tiny.Execute(fmt.Sprintf(`SET work_mem = %d`, spillPropertyWorkMem)); err != nil {
		t.Fatal(err)
	}

	gen := &spillGen{rng: rng}
	const queries = 80
	succeeded := 0
	for i := 0; i < queries; i++ {
		q := gen.query()
		wres, werr := wide.Execute(q)
		tres, terr := tiny.Execute(q)
		if (werr == nil) != (terr == nil) {
			t.Fatalf("seed %d query %d %q: wide err %v, tiny err %v", seed, i, q, werr, terr)
		}
		if werr != nil {
			// Both paths must fail identically (e.g. an unsupported
			// provenance rewrite) — a budget must never change semantics.
			if werr.Error() != terr.Error() {
				t.Fatalf("seed %d query %d %q: errors diverged:\nwide: %v\ntiny: %v", seed, i, q, werr, terr)
			}
			continue
		}
		succeeded++
		if want, got := renderEngineResult(wres), renderEngineResult(tres); want != got {
			t.Fatalf("seed %d query %d diverged under forced spill:\n%s\nwant:\n%.3000s\ngot:\n%.3000s", seed, i, q, want, got)
		}
	}
	if succeeded < queries/2 {
		t.Fatalf("seed %d: only %d/%d generated queries executed", seed, succeeded, queries)
	}
	ms := tiny.MemStatus()
	if ms.SpillFiles == 0 || ms.SpillBytes == 0 {
		t.Fatalf("seed %d: tiny work_mem session never spilled (%+v)", seed, ms)
	}
	if ws := wide.MemStatus(); ws.SpillFiles != 0 {
		t.Fatalf("seed %d: default work_mem session spilled (%+v)", seed, ws)
	}
}
