package resultmatrix

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"perm/internal/engine"
	"perm/internal/value"
	"perm/internal/workload"
)

const (
	// SpillRows is big's size, and other has half as many rows: both above
	// the executor's fan-out floor of 2048 rows. big's rows hold four times
	// BoundedWorkMem.
	SpillRows      = 6400
	TinyWorkMem    = 4096 // every blocking operator is over it at once
	BoundedWorkMem = 128 << 10
	// spillGenRows is the size of r1 and r2, spillGen's tables: below the
	// fan-out floor, and large enough that a sort of a whole table outgrows
	// the external sort's 128 KiB minimum run and merges its runs from disk.
	spillGenRows = 2000
	// growFrom is big's size in Growing's matrix, which the growing cells
	// take to ten times that and back.
	growFrom = SpillRows / 20
)

// Stmt is one statement of the corpus. The reference runs it with its args
// spelled out as literals.
type Stmt struct {
	SQL  string
	Args []value.Value
	// FansOut: at degree 2 and up under the default work_mem, it runs on at
	// least as many workers as the degree. Fails: it fails in the reference.
	FansOut, Fails bool
	// Bounded names a shape whose state in the reference is at least four
	// times BoundedWorkMem; under that budget it spills and its peak stays
	// within twice the budget. The shapes are "provenance" (a sort, a
	// grouping with a DISTINCT aggregate and a set operation under
	// provenance), "join build" and "distinct" (a DISTINCT aggregate's δ).
	Bounded string
	// Spills: under TinyWorkMem it writes a spill file of its own, on the
	// database its matrix was made on.
	Spills bool
	// generated: one of spillGen's, which may fail in the reference.
	generated bool
}

// Literal is the statement with its args spelled out.
func (st Stmt) Literal() string {
	q := st.SQL
	for _, a := range st.Args {
		q = strings.Replace(q, "?", a.SQLLiteral(), 1)
	}
	return q
}

// Shapes are the blocking and parallel operators over big, other, small and d,
// queries without an ORDER BY included: spilling and parallel paths keep the
// serial in-memory emission order. The planner turns the comma joins'
// equality into the join condition, so they run as hash joins.
var Shapes = []Stmt{
	// sorts, which outgrow the external sort's minimum run; the last one's
	// stability shows through its duplicate keys
	{SQL: `SELECT k, v, s FROM big ORDER BY k, v DESC`, Spills: true},
	{SQL: `SELECT k, v FROM big ORDER BY s DESC, v`, Spills: true},
	{SQL: `SELECT k, v FROM big ORDER BY k`, Spills: true},
	{SQL: `SELECT k, v FROM big ORDER BY v DESC, k LIMIT 100`},
	// aggregation, partition-wise with the partials merged in worker order
	{SQL: `SELECT k, count(*), sum(v), min(s), max(v) FROM big GROUP BY k`, FansOut: true},
	{SQL: `SELECT k, count(*), sum(v) FROM big GROUP BY k ORDER BY k`},
	{SQL: `SELECT k % 7, count(*), avg(v) FROM big WHERE v % 2 = 0 GROUP BY k % 7`, FansOut: true},
	{SQL: `SELECT count(*), sum(v), min(v), max(s) FROM big`, FansOut: true},
	{SQL: `SELECT v % 701, count(DISTINCT s), avg(v) FROM big GROUP BY v % 701`},
	{SQL: `SELECT k, count(DISTINCT s) FROM big GROUP BY k`},
	{SQL: `SELECT count(*), count(DISTINCT k) FROM big`},
	// DISTINCT float sums fold each group's arguments in first-occurrence
	// order under any work_mem; two distinct arguments, a plain aggregate and
	// a HAVING on a distinct aggregate
	{SQL: `SELECT k, sum(DISTINCT v * 0.1), avg(DISTINCT v / 7.0), count(DISTINCT v) FROM big GROUP BY k`},
	{SQL: `SELECT k, count(DISTINCT s), sum(DISTINCT v % 13), max(v) FROM big GROUP BY k HAVING count(DISTINCT s) > 100`},
	// DISTINCT and the set operations
	{SQL: `SELECT DISTINCT k, s FROM big`},
	{SQL: `SELECT DISTINCT v % 83 FROM big`},
	{SQL: `SELECT DISTINCT k FROM big`},
	{SQL: `SELECT k, s FROM big INTERSECT SELECT k, s FROM other`},
	{SQL: `SELECT k, v, s FROM big INTERSECT ALL SELECT k, v, s FROM other`},
	{SQL: `SELECT k, s FROM big EXCEPT SELECT k, s FROM other`},
	{SQL: `SELECT k, s FROM big EXCEPT ALL SELECT k, s FROM other`},
	{SQL: `SELECT k, s FROM big UNION SELECT k, s FROM other`},
	{SQL: `SELECT k FROM big UNION SELECT k FROM other ORDER BY k`},
	// gathers over scan, filter and project chains
	{SQL: `SELECT k, v FROM big WHERE v % 3 = 0`, FansOut: true},
	{SQL: `SELECT k + v, s FROM big WHERE k < 25`, FansOut: true},
	// partition-wise joins, with an equi key and without
	{SQL: `SELECT b.k, b.v, o.v FROM big b, other o WHERE b.v = o.v`, FansOut: true},
	{SQL: `SELECT b.k, o.s FROM big b JOIN other o ON b.v = o.v WHERE b.k % 2 = 0`, FansOut: true},
	{SQL: `SELECT b.v, o.v FROM big b LEFT JOIN other o ON b.v = o.v WHERE b.v < 500`, FansOut: true},
	{SQL: `SELECT b.v, sm.w FROM big b, small sm WHERE b.v % 97 < sm.w AND b.v % 11 = 0`, FansOut: true},
	{SQL: `SELECT count(*) FROM big b, small sm`, FansOut: true},
	{SQL: `SELECT k FROM big WHERE v IN (SELECT v FROM other) ORDER BY k LIMIT 50`},
	// provenance through the same operators; an aggregation's join-back
	// α(T) ⟕ T⁺ builds on the groups and emits through the projection
	{SQL: `SELECT PROVENANCE k, v FROM big WHERE v % 5 = 0`, FansOut: true},
	{SQL: `SELECT PROVENANCE b.k, o.v FROM big b, other o WHERE b.v = o.v`, FansOut: true},
	{SQL: `SELECT PROVENANCE k, count(*), sum(v) FROM big GROUP BY k`, FansOut: true},
	{SQL: `SELECT PROVENANCE v % 701, count(*), sum(v) FROM big GROUP BY v % 701`},
	{SQL: `SELECT PROVENANCE k, count(*), sum(v), count(DISTINCT s) FROM big GROUP BY k`},
	// the bounded shapes
	{SQL: `SELECT PROVENANCE k, v, s FROM big ORDER BY v DESC, k`, Bounded: "provenance"},
	{SQL: `SELECT PROVENANCE g, count(*), sum(x), count(DISTINCT x) FROM d GROUP BY g`, Bounded: "provenance"},
	{SQL: `SELECT PROVENANCE k, s FROM big INTERSECT SELECT k, s FROM other`, Bounded: "provenance"},
	{SQL: `SELECT b.k, b.v, o.s FROM big b JOIN other o ON b.v = o.v`, Bounded: "join build"},
	{SQL: `SELECT g, count(DISTINCT x), min(x), avg(x) FROM d GROUP BY g`, Bounded: "distinct"},
	// failures, the same at every degree and budget
	{SQL: `SELECT b.v / (o.v - o.v) FROM big b, other o WHERE b.v = o.v`, Fails: true},
	{SQL: failsMidBuild, Fails: true},
}

// A statement that fails while its join drains the build side, and one that
// the reused cells cancel.
const (
	failsMidBuild = `SELECT m.mid, u.name FROM messages m JOIN users u ON m.uid = u.uid / (u.uid - 50)`
	cancelled     = `SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text`
)

// PaperSuite is a battery over the paper's database: plain SQL, provenance
// with its rewrite strategies (aggregation, set operations, DISTINCT, nested
// subqueries) and views. The replication tests run it on both ends of a feed,
// so it holds no SHOW output, which is node-local.
var PaperSuite = []string{
	`SELECT mId, text, uId FROM messages ORDER BY mId`,
	`SELECT * FROM v1 ORDER BY mId, text`,
	`SELECT PROVENANCE mId, text FROM messages`,
	`SELECT PROVENANCE name FROM users u, messages m WHERE u.uId = m.uId ORDER BY name`,
	`SELECT PROVENANCE count(*) FROM messages`,
	`SELECT PROVENANCE uId, count(*) FROM approved GROUP BY uId ORDER BY uId`,
	`SELECT PROVENANCE mId, text FROM messages UNION SELECT mId, text FROM imports ORDER BY mId, text`,
	`SELECT PROVENANCE DISTINCT text FROM (SELECT text FROM messages UNION ALL SELECT text FROM imports) sub ORDER BY text`,
	`SELECT PROVENANCE mId FROM messages WHERE mId > ANY (SELECT mId FROM approved) ORDER BY mId`,
	`SELECT PROVENANCE ON CONTRIBUTION (COPY COMPLETE) mId, text FROM messages`,
	`SELECT PROVENANCE * FROM v1 ORDER BY mId, text`,
	`SELECT m.mId, a.uId FROM messages m LEFT OUTER JOIN approved a ON m.mId = a.mId ORDER BY m.mId, a.uId`,
}

// forumClasses are the benchmark's seven statement classes, each run plain
// and with SELECT PROVENANCE.
var forumClasses = []string{
	`m.mid, m.text, u.name FROM messages m JOIN users u ON m.uid = u.uid WHERE m.mid % 10 = 0`,
	`count(*), text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text`,
	`mid, text FROM messages UNION SELECT mid, text FROM imports`,
	`mid, text FROM messages WHERE mid IN (SELECT mid FROM approved)`,
	`m.mid, u.name FROM messages m, users u WHERE m.uid = u.uid AND m.mid <= 300 AND u.uid <= 200`,
	`u.name, count(*) FROM messages m JOIN users u ON m.uid = u.uid GROUP BY u.name`,
	`mid, text, uid FROM messages ORDER BY text, mid`,
}

// forumStmts are the blocking operators the classes do not reach and
// statements with binds.
var forumStmts = []Stmt{
	{SQL: `SELECT mid, text FROM messages INTERSECT SELECT mid, text FROM imports`},
	{SQL: `SELECT mid FROM approved INTERSECT ALL SELECT mid FROM messages`},
	{SQL: `SELECT mid, text FROM imports EXCEPT SELECT mid, text FROM messages`},
	{SQL: `SELECT uid FROM approved EXCEPT ALL SELECT uid FROM users`},
	{SQL: `SELECT DISTINCT uid, mid % 7 FROM approved`},
	{SQL: `SELECT uid, count(DISTINCT mid), min(mid) FROM approved GROUP BY uid`},
	{SQL: `SELECT uid, count(*), min(mid), max(mid) FROM approved GROUP BY uid`},
	{SQL: `SELECT name, uid FROM users ORDER BY name DESC, uid`},
	{SQL: `SELECT a.uid, count(*) FROM approved a JOIN messages m ON a.mid = m.mid GROUP BY a.uid ORDER BY a.uid`},
	{SQL: `SELECT PROVENANCE mId, text FROM messages WHERE mId > ? ORDER BY mId`, Args: []value.Value{value.NewInt(1)}},
	{SQL: `SELECT PROVENANCE name FROM users u, messages m WHERE u.uId = m.uId AND name <> ? ORDER BY name`, Args: []value.Value{value.NewString("nobody")}},
	{SQL: `SELECT mId, text FROM messages WHERE text LIKE ? ORDER BY mId`, Args: []value.Value{value.NewString("%a%")}},
	{SQL: `SELECT PROVENANCE uId, count(*) FROM approved WHERE uId >= ? GROUP BY uId HAVING count(*) >= ? ORDER BY uId`, Args: []value.Value{value.NewInt(0), value.NewInt(1)}},
	{SQL: `SELECT mId, ? FROM messages WHERE mId IN (?, ?) ORDER BY mId`, Args: []value.Value{value.NewString("tag"), value.NewInt(1), value.NewInt(3)}},
	{SQL: `SELECT PROVENANCE mId FROM messages WHERE mId > ANY (SELECT mId FROM approved WHERE uId <> ?) ORDER BY mId`, Args: []value.Value{value.NewInt(99)}},
	{SQL: `SELECT CASE WHEN mId = ? THEN ? ELSE NULL END FROM messages ORDER BY mId`, Args: []value.Value{value.NewInt(2), value.NewFloat(2.5)}},
}

// Paper is the statements over the forum's tables, which the paper's
// database also has: forumStmts, PaperSuite and the classes.
func Paper() []Stmt {
	c := append([]Stmt(nil), forumStmts...)
	for _, q := range PaperSuite {
		c = append(c, Stmt{SQL: q})
	}
	for _, b := range forumClasses {
		c = append(c, Stmt{SQL: "SELECT " + b}, Stmt{SQL: "SELECT PROVENANCE " + b})
	}
	return c
}

// Seeds are spillGen's seeds: {1, 424242}, or PERM_SPILL_SEED.
func Seeds(t *testing.T) []int64 {
	t.Helper()
	if env := os.Getenv("PERM_SPILL_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad PERM_SPILL_SEED %q: %v", env, err)
		}
		return []int64{v}
	}
	return []int64{1, 424242}
}

// Generated is spillGen's draw for seed, from one stream: r1's spillGenRows
// rows, r2's, then 80 queries over them. An unfiltered sort of a whole table
// Spills.
func Generated(seed int64) (rows []string, stmts []Stmt) {
	gen := &spillGen{rng: rand.New(rand.NewSource(seed))}
	rows = make([]string, 2*spillGenRows)
	for i := range rows {
		rows[i] = gen.row()
	}
	stmts = make([]Stmt, 80)
	for i := range stmts {
		q, wholeSort := gen.query()
		stmts[i] = Stmt{SQL: q, Spills: wholeSort, generated: true}
	}
	return rows, stmts
}

// SeedDB loads the corpus's database with bigRows rows in big, and genRows,
// a draw of Generated, in r1 and r2 (empty if nil).
func SeedDB(t *testing.T, bigRows int, genRows []string) *engine.DB {
	t.Helper()
	db := engine.NewDB()
	// SELECT PROVENANCE ... > ANY pairs every message with every approval,
	// so the forum is small. Its uids reach 50, where failsMidBuild divides
	// by zero.
	forum := workload.DefaultForum(100)
	forum.Users = 60
	if err := workload.LoadForum(db, forum); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	defer s.Close()
	for _, table := range []string{"big (k int, v int, s text)", "other (k int, v int, s text)", "small (w int)",
		"r1 (a int, b int, c text, d float)", "r2 (a int, b int, c text, d float)", "d (g int, x int)"} {
		mustExec(t, s, "CREATE TABLE "+table)
	}
	fillSpillTables(t, s, 0, bigRows)
	insertRows(t, s, "small", 12, func(i int) string { return strconv.Itoa(i * 3 % 40) })
	for half, table := range []string{"r1", "r2"} {
		rows := genRows[len(genRows)/2*half : len(genRows)/2*(half+1)]
		insertRows(t, s, table, len(rows), func(i int) string { return rows[i] })
	}
	// 10 000 distinct (g, x) pairs: a δ of four times BoundedWorkMem under the
	// DISTINCT aggregates over d
	insertRows(t, s, "d", 10000, func(i int) string { return fmt.Sprintf("%d, %d", i%8, i) })
	return db
}

// fillSpillTables adds big's rows [from, to) and other's [from/2, to/2):
// distinct values, keys repeated fifty ways in an order no partition of the
// rows repeats, payloads cycling through 997. Deleting the rows at v >= n
// leaves the tables as filling them to n did.
func fillSpillTables(t *testing.T, s *engine.Session, from, to int) {
	t.Helper()
	for _, tb := range []struct {
		name     string
		from, to int
		mul      uint32
	}{{"big", from, to, 2654435761}, {"other", from / 2, to / 2, 2246822519}} {
		insertRows(t, s, tb.name, tb.to-tb.from, func(i int) string {
			v := tb.from + i
			return fmt.Sprintf("%d, %d, 'payload %d'", uint32(v)*tb.mul>>20%50, v, v%997)
		})
	}
}

// insertRows inserts n rows into table, 1000 a statement; row(i) is row i's
// values.
func insertRows(t *testing.T, s *engine.Session, table string, n int, row func(i int) string) {
	t.Helper()
	for lo := 0; lo < n; lo += 1000 {
		var vals []string
		for i := lo; i < min(lo+1000, n); i++ {
			vals = append(vals, "("+row(i)+")")
		}
		mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES %s", table, strings.Join(vals, ", ")))
	}
}

// spillGen generates random valid queries over r1 and r2, both (a int, b int,
// c text, d float), covering every blocking operator: ORDER BY with several
// ascending and descending keys, GROUP BY with plain and DISTINCT aggregates
// and HAVING, INTERSECT, EXCEPT and UNION in ALL and DISTINCT flavours, and
// DISTINCT projection, each optionally under SELECT PROVENANCE.
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

// row returns a row of r1 or r2, with duplicate-heavy keys and NULLs.
func (g *spillGen) row() string {
	c := fmt.Sprintf("'word%d'", g.rng.Intn(30))
	if g.rng.Intn(20) == 0 {
		c = "NULL"
	}
	d := fmt.Sprintf("%d.5", g.rng.Intn(400))
	if g.rng.Intn(20) == 0 {
		d = "NULL"
	}
	return fmt.Sprintf("%d, %d, %s, %s", g.rng.Intn(400), g.rng.Intn(1000), c, d)
}

// query returns a query, and whether it sorts a whole table.
func (g *spillGen) query() (string, bool) {
	switch g.rng.Intn(4) {
	case 0: // multi-key ORDER BY
		prov, table, where := g.prov(), g.table(), g.where()
		return fmt.Sprintf(`SELECT %sa, b, c, d FROM %s%s%s`,
			prov, table, where, g.orderBy("a", "b", "c", "d")), where == ""
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
		return q, false
	case 2: // set operations
		op := g.pick("INTERSECT", "INTERSECT ALL", "EXCEPT", "EXCEPT ALL", "UNION", "UNION ALL")
		q := fmt.Sprintf(`SELECT %sa, c FROM r1%s %s SELECT a, c FROM r2%s`,
			g.prov(), g.where(), op, g.where())
		if g.rng.Intn(2) == 0 {
			q += g.orderBy("a", "c")
		}
		return q, false
	default: // DISTINCT projection
		q := fmt.Sprintf(`SELECT %sDISTINCT a, c FROM %s%s`, g.prov(), g.table(), g.where())
		if g.rng.Intn(2) == 0 {
			q += g.orderBy("a", "c")
		}
		return q, false
	}
}
