// Command permshell is the terminal analog of the Perm browser used in the
// demonstration (Figure 4): an interactive SQL shell against an in-memory
// Perm database that can display, for every query, the result table, the
// rewritten SQL, and the original and rewritten algebra trees.
//
// With -connect host:port the shell becomes a remote client of a running
// permserver: statements execute in a server-side session over the wire
// protocol, and \save streams a consistent online backup.
//
// Meta commands:
//
//	\d [table]        list relations / describe one
//	\load example     load the paper's Figure 1 database
//	\load forum N     load a scaled synthetic forum database
//	\load star N      load a synthetic sales star schema
//	\trees on|off     show algebra trees for each query (default off)
//	\timing on|off    show per-stage timings (default off)
//	\set name value   session setting (shorthand for SET)
//	\status           server role and replication status
//	\cluster [addrs]  probe cluster members: roles, epochs, lag
//	\mem              session memory budget and spill counters
//	\q                quit
//
// Blocking operators (ORDER BY, GROUP BY, INTERSECT/EXCEPT, DISTINCT) run
// under the session's work_mem budget and spill to disk past it, so a
// provenance result far larger than RAM still sorts and aggregates:
//
//	perm=# SET work_mem = 1048576;    -- 1 MiB budget (bytes; 0 = unlimited)
//	perm=# SELECT PROVENANCE * FROM posts ORDER BY content DESC;
//	perm=# SHOW memory_status;        -- or \mem: budget, peak, spill files/bytes
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"perm"
	"perm/internal/value"
	"perm/internal/wire"
	"perm/internal/workload"
)

type shell struct {
	db     *perm.DB
	client *wire.Client // non-nil in -connect mode
	addr   string       // the -connect address, for \cluster's default probe
	out    *bufio.Writer
	trees  bool
	timing bool
	// fetch is the cursor batch size for remote queries: the server
	// suspends the result every N rows and the shell fetches on, so a huge
	// provenance result never materializes server-side. 0 streams without
	// suspending.
	fetch int
	// parDeg is the raw -parallelism flag (0 = not given, negative = all
	// cores). \load and \open replace the embedded database and with it
	// the implicit session, so the flag's SET must be re-applied then.
	parDeg int
}

// applyParallelism issues the -parallelism flag's SET against the current
// database/connection. Called at startup and again whenever a meta command
// swaps the embedded database out from under the session.
func (s *shell) applyParallelism() {
	if s.parDeg == 0 {
		return
	}
	n := s.parDeg
	if n < 0 {
		n = 0 // negative flag = all cores (SET parallelism = 0)
	}
	s.run(fmt.Sprintf("SET parallelism = %d;", n))
}

func main() {
	connect := flag.String("connect", "", "connect to a permserver at host:port instead of running embedded")
	parallelism := flag.Int("parallelism", 0, "intra-query parallelism degree for this session (0 = serial, -1 = all cores)")
	flag.Parse()

	fmt.Println("Perm shell — provenance management system (SQL-PLE dialect)")
	fmt.Println(`type SQL statements terminated by ';', \? for help, \q to quit`)

	sh := &shell{out: bufio.NewWriter(os.Stdout), fetch: 512}
	if *connect != "" {
		client, err := wire.Dial(*connect)
		if err != nil {
			fmt.Fprintf(os.Stderr, "connect %s: %v\n", *connect, err)
			os.Exit(1)
		}
		sh.client = client
		sh.addr = *connect
		defer client.Close()
		fmt.Printf("connected to %s (server %q, protocol %d)\n",
			*connect, client.Server().Server, client.Server().Version)
	} else {
		sh.db = perm.Open()
	}
	sh.parDeg = *parallelism
	sh.applyParallelism()
	defer sh.out.Flush()

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "perm=# "
	for {
		sh.out.Flush()
		fmt.Print(prompt)
		if !scanner.Scan() {
			return
		}
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !sh.meta(trimmed) {
				return
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.HasSuffix(trimmed, ";") {
			sh.run(buf.String())
			buf.Reset()
			prompt = "perm=# "
		} else if strings.TrimSpace(buf.String()) != "" {
			prompt = "perm-# "
		}
	}
}

func (s *shell) run(sqlText string) {
	sqlText = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sqlText), ";"))
	if sqlText == "" {
		return
	}
	if s.client != nil {
		s.runRemote(sqlText)
		return
	}
	if s.trees && looksLikeQuery(sqlText) {
		if ex, err := s.db.Explain(sqlText); err == nil {
			fmt.Fprintln(s.out, "original algebra tree:")
			fmt.Fprint(s.out, ex.OriginalTree)
			fmt.Fprintln(s.out, "rewritten algebra tree:")
			fmt.Fprint(s.out, ex.RewrittenTree)
			fmt.Fprintln(s.out, "rewritten SQL:", ex.RewrittenSQL)
			for _, d := range ex.Decisions {
				fmt.Fprintln(s.out, "decision:", d)
			}
		}
	}
	res, err := s.db.Exec(sqlText)
	if err != nil {
		fmt.Fprintln(s.out, "ERROR:", err)
		return
	}
	s.render(res)
}

// render prints a result the same way for the embedded and remote paths:
// table, tag, cache-hit note, timings.
func (s *shell) render(res *perm.Result) {
	if len(res.Columns) > 0 {
		fmt.Fprint(s.out, perm.FormatTable(res))
	}
	fmt.Fprintln(s.out, res.Tag)
	if res.CacheHit {
		fmt.Fprintln(s.out, "(served from plan cache)")
	}
	if s.timing {
		fmt.Fprintf(s.out, "timing: parse=%v analyze=%v rewrite=%v plan=%v execute=%v\n",
			res.ParseTime, res.AnalyzeTime, res.RewriteTime, res.PlanTime, res.ExecuteTime)
	}
}

// runRemote executes one statement in the server-side session through a
// cursor — the server streams the result in \fetch-sized batches instead of
// materializing it — and renders it exactly like the embedded path.
func (s *shell) runRemote(sqlText string) {
	cur, err := s.client.Execute("", sqlText, nil, s.fetch)
	if err != nil {
		fmt.Fprintln(s.out, "ERROR:", err)
		return
	}
	res := &perm.Result{Columns: cur.Desc.Names}
	if n := len(cur.Desc.IsProv); n > 0 {
		res.ProvenanceColumns = append([]bool(nil), cur.Desc.IsProv...)
	}
	for {
		row, err := cur.Next()
		if err != nil {
			cur.Close()
			fmt.Fprintln(s.out, "ERROR:", err)
			return
		}
		if row == nil {
			break
		}
		res.Rows = append(res.Rows, value.Row(row))
	}
	if err := cur.Close(); err != nil {
		fmt.Fprintln(s.out, "ERROR:", err)
		return
	}
	done := cur.Complete
	res.Tag = done.Tag
	res.CacheHit = done.CacheHit
	res.ParseTime = time.Duration(done.Parse)
	res.AnalyzeTime = time.Duration(done.Analyze)
	res.RewriteTime = time.Duration(done.Rewrite)
	res.PlanTime = time.Duration(done.Plan)
	res.ExecuteTime = time.Duration(done.Execute)
	s.render(res)
}

func looksLikeQuery(sqlText string) bool {
	lower := strings.ToLower(strings.TrimSpace(sqlText))
	return strings.HasPrefix(lower, "select") || strings.HasPrefix(lower, "(") ||
		strings.HasPrefix(lower, "values")
}

// meta handles backslash commands; it returns false to quit.
func (s *shell) meta(cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit":
		return false
	case "\\?", "\\h", "\\help":
		fmt.Fprintln(s.out, `meta commands:
  \d [table]       list relations / describe one
  \load example    load the paper's Figure 1 database
  \load forum N    load a scaled synthetic forum database
  \load star N     load a synthetic star schema
  \save file       persist the database (incl. materialized provenance)
  \open file       load a persisted database
  \trees on|off    show algebra trees per query
  \timing on|off   show stage timings per query
  \fetch N         cursor batch size for remote queries (0 = no suspension)
  \set name value  change a session setting (e.g. \set work_mem 1048576)
  \status          server role and replication status
  \cluster [addrs] probe cluster members (comma-separated; default: the -connect address)
  \mem             session memory budget, peak, spill counters
  \stats           process-wide engine metrics (queries, cache, WAL, spill)
  \trace on|off    per-query stage tracing (then SHOW last_trace)
  \q               quit`)
	case "\\d":
		if s.client != nil {
			fmt.Fprintln(s.out, `\d needs the embedded catalog; not available over -connect`)
			break
		}
		if len(fields) == 1 {
			s.listRelations()
		} else {
			s.describe(fields[1])
		}
	case "\\trees":
		if s.client != nil {
			fmt.Fprintln(s.out, `\trees runs EXPLAIN locally; not available over -connect`)
			break
		}
		s.trees = len(fields) > 1 && fields[1] == "on"
		fmt.Fprintf(s.out, "trees: %v\n", s.trees)
	case "\\timing":
		s.timing = len(fields) > 1 && fields[1] == "on"
		fmt.Fprintf(s.out, "timing: %v\n", s.timing)
	case "\\fetch":
		if len(fields) != 2 {
			fmt.Fprintln(s.out, "usage: \\fetch N")
			break
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			fmt.Fprintln(s.out, "usage: \\fetch N (N >= 0)")
			break
		}
		s.fetch = n
		fmt.Fprintf(s.out, "fetch: %d\n", s.fetch)
	case "\\load":
		if s.client != nil {
			fmt.Fprintln(s.out, `\load replaces the local database; not available over -connect (use permserver -load)`)
			break
		}
		s.load(fields[1:])
	case "\\save":
		if len(fields) != 2 {
			fmt.Fprintln(s.out, "usage: \\save file")
			break
		}
		f, err := os.Create(fields[1])
		if err != nil {
			fmt.Fprintln(s.out, "ERROR:", err)
			break
		}
		if s.client != nil {
			// Remote: stream a consistent online backup over the wire.
			err = s.client.Backup(f)
		} else {
			err = s.db.Save(f)
		}
		f.Close()
		if err != nil {
			fmt.Fprintln(s.out, "ERROR:", err)
			break
		}
		fmt.Fprintf(s.out, "saved to %s\n", fields[1])
	case "\\open":
		if s.client != nil {
			fmt.Fprintln(s.out, `\open replaces the local database; not available over -connect (use permserver -open)`)
			break
		}
		if len(fields) != 2 {
			fmt.Fprintln(s.out, "usage: \\open file")
			break
		}
		f, err := os.Open(fields[1])
		if err != nil {
			fmt.Fprintln(s.out, "ERROR:", err)
			break
		}
		db, err := perm.Load(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(s.out, "ERROR:", err)
			break
		}
		s.db = db
		fmt.Fprintf(s.out, "opened %s\n", fields[1])
		s.applyParallelism()
	case "\\set":
		if len(fields) == 3 {
			s.run(fmt.Sprintf("SET %s = '%s'", fields[1], fields[2]))
		} else {
			fmt.Fprintln(s.out, "usage: \\set name value")
		}
	case "\\status":
		// Role, LSNs, lag and health — identical columns embedded and over
		// -connect, because it is plain SQL either way.
		if s.client != nil {
			fmt.Fprintf(s.out, "connected to server %q (protocol %d)\n",
				s.client.Server().Server, s.client.Server().Version)
		}
		s.run("SHOW replication_status")
	case "\\cluster":
		s.clusterStatus(fields[1:])
	case "\\mem":
		// The session's work_mem budget, live/peak tracked bytes and spill
		// counters — plain SQL, so it works embedded and over -connect.
		s.run("SHOW memory_status")
	case "\\stats":
		// Process-wide metrics snapshot — plain SQL, so over -connect it
		// reports the server process, which is the point.
		s.run("SHOW engine_stats")
	case "\\trace":
		if len(fields) > 1 && (fields[1] == "on" || fields[1] == "off") {
			s.run("SET trace = " + fields[1])
		} else {
			s.run("SHOW last_trace")
		}
	default:
		fmt.Fprintf(s.out, "unknown meta command %s (try \\?)\n", fields[0])
	}
	return true
}

// clusterStatus probes each member address with a Status round trip and
// renders the membership table: role, fencing epoch, replication positions,
// lag and health. Addresses come from the arguments (comma- or
// space-separated); with none, the -connect address is probed.
func (s *shell) clusterStatus(args []string) {
	var addrs []string
	for _, a := range args {
		for _, one := range strings.Split(a, ",") {
			if one = strings.TrimSpace(one); one != "" {
				addrs = append(addrs, one)
			}
		}
	}
	if len(addrs) == 0 {
		if s.addr == "" {
			fmt.Fprintln(s.out, `usage: \cluster addr1,addr2,... (default needs -connect)`)
			return
		}
		addrs = []string{s.addr}
	}
	w := tabwriter.NewWriter(s.out, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "member\trole\tepoch\tapplied\tdurable\tlag\tstaleness\thealth")
	for _, addr := range addrs {
		cli, err := wire.DialTimeout(addr, 3*time.Second)
		if err != nil {
			fmt.Fprintf(w, "%s\t-\t-\t-\t-\t-\t-\tunreachable: %v\n", addr, err)
			continue
		}
		st, err := cli.Status()
		cli.Close()
		if err != nil {
			fmt.Fprintf(w, "%s\t-\t-\t-\t-\t-\t-\tstatus failed: %v\n", addr, err)
			continue
		}
		health := "ok"
		if st.Role == "replica" && !st.Connected {
			health = "disconnected"
		}
		if st.LastError != "" {
			health += " (" + st.LastError + ")"
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%dms\t%s\n",
			addr, st.Role, st.Epoch, st.AppliedLSN, st.DurableLSN, st.LagRecords(), st.StalenessMs, health)
	}
	w.Flush()
}

func (s *shell) load(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(s.out, "usage: \\load example | forum N | star N")
		return
	}
	// Loading replaces the database.
	db := perm.Open()
	n := 1000
	if len(args) > 1 {
		n, _ = strconv.Atoi(args[1])
	}
	err := workload.LoadByName(db.Engine(), args[0], n)
	if err != nil {
		fmt.Fprintln(s.out, "ERROR:", err)
		return
	}
	s.db = db
	fmt.Fprintf(s.out, "loaded %s\n", strings.Join(args, " "))
	s.applyParallelism()
}

func (s *shell) listRelations() {
	cat := s.db.Engine().Catalog()
	fmt.Fprintln(s.out, "tables:")
	for _, t := range cat.TableNames() {
		st := cat.TableStats(t)
		fmt.Fprintf(s.out, "  %s (%d rows)\n", t, st.RowCount)
	}
	fmt.Fprintln(s.out, "views:")
	for _, v := range cat.ViewNames() {
		fmt.Fprintf(s.out, "  %s\n", v)
	}
}

func (s *shell) describe(name string) {
	cat := s.db.Engine().Catalog()
	if t := cat.Table(name); t != nil {
		fmt.Fprintf(s.out, "table %s:\n", t.Name)
		for _, c := range t.Columns {
			nn := ""
			if c.NotNull {
				nn = " NOT NULL"
			}
			fmt.Fprintf(s.out, "  %-20s %s%s\n", c.Name, c.Type, nn)
		}
		return
	}
	if v := cat.View(name); v != nil {
		fmt.Fprintf(s.out, "view %s AS %s\n", v.Name, v.Text)
		return
	}
	fmt.Fprintf(s.out, "relation %q not found\n", name)
}
