package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"strconv"

	"perm/internal/engine"
	"perm/internal/value"
	"perm/internal/wal"
	"perm/internal/wire"
)

// goldenSeed is the seed golden.json was taken with. The paper database does
// not depend on the seed, so its golden entries hold on every seed.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// goldenEntry is a result's row count and an order-insensitive checksum: the
// sum of the FNV-1a hashes of its wire-encoded rows, in decimal.
type goldenEntry struct {
	Rows int    `json:"rows"`
	Sum  string `json:"sum"`
}

// golden maps dataset → statement key → entry.
type golden map[string]map[string]goldenEntry

func entryOf(rows []value.Row) goldenEntry {
	var sum uint64
	var buf []byte
	for _, row := range rows {
		buf = wire.AppendRow(buf[:0], row)
		h := fnv.New64a()
		h.Write(buf)
		sum += h.Sum64()
	}
	return goldenEntry{Rows: len(rows), Sum: strconv.FormatUint(sum, 10)}
}

func encodeRows(rows []value.Row) []byte {
	var buf []byte
	for _, row := range rows {
		buf = wire.AppendRow(buf, row)
	}
	return buf
}

// checker counts correctness checks; each counts as one attempted operation
// of the result line, and a failed one makes the run incorrect.
type checker struct {
	attempted, failed int
	errs              []string
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.fail(format, args...)
	}
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// projectionEquals reports whether the provenance result, projected on its
// first len(plain[0]) columns (the original attributes come first) and
// de-duplicated, is the de-duplicated plain result.
func projectionEquals(plain, prov []value.Row) bool {
	if len(plain) == 0 || len(prov) == 0 {
		return len(plain) == len(prov)
	}
	k := len(plain[0])
	set := func(rows []value.Row) map[string]bool {
		m := map[string]bool{}
		for _, row := range rows {
			m[string(wire.AppendRow(nil, row[:k]))] = true
		}
		return m
	}
	a, b := set(plain), set(prov)
	if len(a) != len(b) {
		return false
	}
	for key := range a {
		if !b[key] {
			return false
		}
	}
	return true
}

// verify checks the environment's answers after warm-up and before the
// window, and returns what it saw per statement key (the golden content).
//
//   - every statement returns the same bytes on the workload's own path
//     and on an embedded session with default settings; wire_oltp's reads
//     also through a bare wire.Client;
//   - every provenance result, projected on the original columns and
//     de-duplicated, equals its plain twin.
//
// It also fixes the row count each statement of an embedded workload must
// return in the window.
func (e *env) verify(c *checker) map[string]goldenEntry {
	results := e.verifyPath(c, "workload's own path", e.clients[0].run)
	if e.w.dataset == "oltp" {
		wr, err := newWireRunner(e.srv.addr)
		if err != nil {
			c.fail("dial wire.Client: %v", err)
			return nil
		}
		e.verifyPath(c, "wire.Client path", wr)
		c.check(wr.close() == nil, "closing the wire.Client failed")
	}

	seen := map[string]goldenEntry{}
	ops := e.checkOps()
	for i := range ops {
		o := &ops[i]
		got, ok := results[o.st.key()]
		if !ok {
			continue // the path failed on it, and verifyPath said so
		}
		if o.want >= 0 {
			c.check(len(got) == o.want, "%s: %d rows, want %d", o.st.key(), len(got), o.want)
		}
		o.want = len(got)
		seen[o.st.key()] = entryOf(got)
	}
	for _, st := range e.w.stmts {
		if st.variant == "prov" {
			plain, prov := results[st.class+".plain"], results[st.key()]
			c.check(projectionEquals(plain, prov),
				"%s: provenance projected on the original columns differs from the plain result", st.class)
		}
	}
	return seen
}

// verifyGolden checks what verify saw against golden.json: row count and
// checksum per statement, on the golden seed, and on every seed for the
// paper database.
func (e *env) verifyGolden(c *checker, seen map[string]goldenEntry) {
	if e.seed != goldenSeed && e.w.dataset != "paper" {
		return
	}
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		c.fail("golden.json: %v", err)
	}
	for key, got := range seen {
		want, ok := g[e.w.dataset][key]
		c.check(ok && got == want, "%s: result %+v, golden %+v", key, got, want)
	}
}

// checkOps are the statements the checks run: the whole list of an embedded
// workload (the slice the clients cycle over, so that verify can fix its
// expected row counts), and wire_oltp's reads with fixed keys.
func (e *env) checkOps() []op {
	if e.w.dataset != "oltp" {
		return e.fixed
	}
	byKey := e.gens[0].st
	return []op{
		{st: byKey["POINT"], args: []int64{7}, want: 1},
		{st: byKey["GAGG.plain"], args: []int64{3}, want: 1},
		{st: byKey["GAGG.prov"], args: []int64{3}, want: acctRows / acctGroups},
		{st: byKey["SCAN"], want: acctRows / 2},
	}
}

// verifyPath checks that a path returns, for every checked statement, the
// bytes an embedded session with default settings returns, and returns the
// path's rows by statement key.
func (e *env) verifyPath(c *checker, name string, r runner) map[string][]value.Row {
	ref := newSessRunner(e.refSession())
	defer ref.close()
	results := map[string][]value.Row{}
	for _, o := range e.checkOps() {
		var got, want []value.Row
		_, err := r.run(&o, &got)
		if err == nil {
			_, err = ref.run(&o, &want)
			results[o.st.key()] = got
		}
		c.check(err == nil && bytes.Equal(encodeRows(got), encodeRows(want)),
			"%s: the %s and an embedded session disagree (err %v)", o.st.key(), name, err)
	}
	return results
}

// oltpState reads the two aggregates wire_oltp's end state is checked on.
func oltpState(s *engine.Session) (sumBal, evRows int64, err error) {
	res, err := s.Execute("SELECT sum(bal) FROM acct")
	if err != nil {
		return 0, 0, err
	}
	sumBal = res.Rows[0][0].Int()
	if res, err = s.Execute("SELECT count(*) FROM ev"); err != nil {
		return 0, 0, err
	}
	return sumBal, res.Rows[0][0].Int(), nil
}

// wantState is what the acknowledged writes of all connections imply.
func (e *env) wantState() (sumBal, evRows int64) {
	sumBal = e.initBal
	for _, g := range e.gens {
		sumBal += g.balDelta
		evRows += g.evRows
	}
	return sumBal, evRows
}

// verifyEndState checks wire_oltp's live end state against the acknowledged
// writes. Call it before stop.
func (e *env) verifyEndState(c *checker) {
	s := e.refSession()
	defer s.Close()
	sumBal, evRows, err := oltpState(s)
	wantBal, wantEv := e.wantState()
	c.check(err == nil && sumBal == wantBal && evRows == wantEv,
		"end state sum(bal)=%d count(ev)=%d, acknowledged writes imply %d and %d (err %v)", sumBal, evRows, wantBal, wantEv, err)
}

// verifyRecovered re-opens wire_oltp's data directory after stop and checks
// that recovery arrives at the same end state.
func (e *env) verifyRecovered(c *checker) {
	store, mgr, _, err := wal.Open(filepath.Join(e.dir, "data"), wal.Options{Sync: "always"})
	if err != nil {
		c.fail("wal.Open after the run: %v", err)
		return
	}
	s := engine.NewDBFrom(store).NewSession()
	sumBal, evRows, err := oltpState(s)
	s.Close()
	wantBal, wantEv := e.wantState()
	c.check(err == nil && sumBal == wantBal && evRows == wantEv,
		"recovered state sum(bal)=%d count(ev)=%d, acknowledged writes imply %d and %d (err %v)", sumBal, evRows, wantBal, wantEv, err)
	c.check(mgr.Close() == nil, "closing the recovered WAL manager failed")
}
