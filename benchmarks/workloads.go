package main

import (
	"fmt"
	"math/rand"
)

// forumSize is the message count of the synthetic forum database the two
// analytic workloads run on. It is sized so that a cycle of prov_spill, the
// slowest workload, fits more than 100 times into one measured window on the
// 2-core reference host (cycle_p90_ms needs ten samples beyond it).
const forumSize = 2000

// stmt is one statement of a workload's list. Statements of one class come
// as a plain statement and its SELECT PROVENANCE twin where the class has
// one; the twin is what prov_overhead_x is computed from.
type stmt struct {
	class   string // e.g. "SPJ", "POINT"
	variant string // "plain", "prov" or "" (no twin)
	sql     string
	write   bool
	idx     int // position in workload.stmts, indexes the sample arrays
}

// key names the statement in goldens, traces and per-layer metrics.
func (s *stmt) key() string {
	if s.variant == "" {
		return s.class
	}
	return s.class + "." + s.variant
}

// op is one execution of a statement: its bound arguments and the row count
// (reads) or affected-row count (writes) a correct answer has; want < 0
// means the count is not known yet.
type op struct {
	st   *stmt
	args []int64
	want int
}

// classBodies are the seven statement classes of the issue, as the text
// after SELECT [PROVENANCE]. They run unchanged on the forum data and on the
// paper's Figure-1 database, which share a schema.
var classBodies = []struct{ class, body string }{
	{"SPJ", `m.mid, m.text, u.name FROM messages m JOIN users u ON m.uid = u.uid WHERE m.mid % 10 = 0`},
	{"AGG", `count(*), text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text`},
	{"UNION", `mid, text FROM messages UNION SELECT mid, text FROM imports`},
	{"NESTED", `mid, text FROM messages WHERE mid IN (SELECT mid FROM approved)`},
	{"CJOIN", `m.mid, u.name FROM messages m, users u WHERE m.uid = u.uid AND m.mid <= 300 AND u.uid <= 200`},
	{"JAGG", `u.name, count(*) FROM messages m JOIN users u ON m.uid = u.uid GROUP BY u.name`},
	{"SORT", `mid, text, uid FROM messages ORDER BY text, mid`},
}

// classStmts returns the 7 classes × {plain, prov}.
func classStmts() []*stmt {
	var out []*stmt
	for _, c := range classBodies {
		out = append(out,
			&stmt{class: c.class, variant: "plain", sql: "SELECT " + c.body},
			&stmt{class: c.class, variant: "prov", sql: "SELECT PROVENANCE " + c.body})
	}
	return out
}

// sqlPLEStmts are the three SQL-PLE forms cold_frontend adds, one each.
func sqlPLEStmts() []*stmt {
	return []*stmt{
		{class: "COPY", sql: `SELECT PROVENANCE ON CONTRIBUTION (COPY) mid, text FROM messages UNION SELECT mid, text FROM imports`},
		{class: "BASEREL", sql: `SELECT PROVENANCE text FROM v1 BASERELATION WHERE mid > 1`},
		{class: "PROVATTR", sql: `SELECT PROVENANCE mid, text FROM messages PROVENANCE (uid) WHERE mid >= 1`},
	}
}

// wire_oltp's statements. acct has acctRows rows in acctGroups groups; ev
// holds each connection's last evKeep cycles of inserts.
const (
	acctRows   = 2000
	acctGroups = 20
	evKeep     = 16
)

func oltpStmts() []*stmt {
	return []*stmt{
		{class: "POINT", sql: `SELECT id, owner, bal FROM acct WHERE id = ?`},
		{class: "GAGG", variant: "plain", sql: `SELECT grp, sum(bal) FROM acct WHERE grp = ? GROUP BY grp`},
		{class: "GAGG", variant: "prov", sql: `SELECT PROVENANCE grp, sum(bal) FROM acct WHERE grp = ? GROUP BY grp`},
		{class: "INS", write: true, sql: `INSERT INTO ev VALUES (?, ?, ?)`},
		{class: "UPD", write: true, sql: `UPDATE acct SET bal = bal + ? WHERE id = ?`},
		{class: "DEL", write: true, sql: `DELETE FROM ev WHERE id >= ? AND id < ?`},
		{class: "SCAN", sql: `SELECT PROVENANCE id, owner, bal FROM acct WHERE grp < 10`},
	}
}

// oltpGen draws one connection's cycles from its own seeded PRNG and keeps
// the tally of what its acknowledged writes imply for the end state.
type oltpGen struct {
	st     map[string]*stmt
	rng    *rand.Rand
	conn   int64
	nconn  int64
	cycle  int64
	ops    []op
	argBuf []int64

	balDelta int64 // Σ UPD amounts
	evRows   int64 // INS − DEL rows
}

func newOLTPGen(stmts []*stmt, seed int64, conn, nconn int) *oltpGen {
	g := &oltpGen{st: map[string]*stmt{}, conn: int64(conn), nconn: int64(nconn),
		rng: rand.New(rand.NewSource(seed*7919 + int64(conn)))}
	for _, s := range stmts {
		g.st[s.key()] = s
	}
	return g
}

// evID is the id of the k-th insert of the given cycle of this connection.
func (g *oltpGen) evID(cycle, k int64) int64 { return g.conn*1e12 + cycle*3 + k }

// next builds the 18 statements of the next cycle. The returned slice is
// reused by the following call.
func (g *oltpGen) next() []op {
	g.ops, g.argBuf = g.ops[:0], g.argBuf[:0]
	add := func(key string, want int, args ...int64) {
		n := len(g.argBuf)
		g.argBuf = append(g.argBuf, args...)
		g.ops = append(g.ops, op{st: g.st[key], args: g.argBuf[n:len(g.argBuf):len(g.argBuf)], want: want})
	}
	id := func() int64 { return g.rng.Int63n(acctRows) + 1 }
	grp := func() int64 { return g.rng.Int63n(acctGroups) }
	for i := 0; i < 4; i++ {
		add("POINT", 1, id())
	}
	add("GAGG.plain", 1, grp())
	add("GAGG.prov", acctRows/acctGroups, grp())
	for k := int64(0); k < 3; k++ {
		add("INS", 1, g.evID(g.cycle, k), id(), g.rng.Int63n(1000))
		g.evRows++
	}
	// Each connection updates only its own residue class of ids, so two
	// autocommit updates never meet on a row and no statement can fail
	// with a write conflict.
	amt := g.rng.Int63n(200) - 100
	add("UPD", 1, amt, g.rng.Int63n(acctRows/g.nconn)*g.nconn+g.conn+1)
	g.balDelta += amt
	for i := 0; i < 4; i++ {
		add("POINT", 1, id())
	}
	add("GAGG.plain", 1, grp())
	add("GAGG.prov", acctRows/acctGroups, grp())
	if old := g.cycle - evKeep; old >= 0 {
		add("DEL", 3, g.evID(old, 0), g.evID(old, 3))
		g.evRows -= 3
	} else {
		add("DEL", 0, -2, -1)
	}
	add("SCAN", acctRows/2)
	g.cycle++
	return g.ops
}

// workload describes one of the four workloads; harness.go builds its
// environment, BENCHMARK.json and README.md say why each was chosen.
type workload struct {
	name  string
	stmts []*stmt
	// dataset is "forum", "paper" or "oltp"; workMem > 0 overrides the
	// default budget; planCache false turns the session plan cache off;
	// clients is the closed-loop client count.
	dataset   string
	workMem   int64
	planCache bool
	clients   int
}

func workloads() []*workload {
	ws := []*workload{
		{name: "prov_analytic", dataset: "forum", planCache: true, clients: 1, stmts: classStmts()},
		{name: "prov_spill", dataset: "forum", planCache: true, clients: 1, workMem: 1 << 20, stmts: classStmts()},
		{name: "cold_frontend", dataset: "paper", planCache: false, clients: 1, stmts: append(classStmts(), sqlPLEStmts()...)},
		{name: "wire_oltp", dataset: "oltp", planCache: true, clients: 2, stmts: oltpStmts()},
	}
	for _, w := range ws {
		for i, s := range w.stmts {
			s.idx = i
		}
	}
	return ws
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
