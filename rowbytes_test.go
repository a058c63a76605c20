package perm_test

import (
	"context"
	"database/sql"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"perm/internal/engine"
	"perm/internal/server"
)

// TestStreamedRowBytes: a row streamed to a database/sql caller, which copies
// it into dest and drops it, is made once on its way. The bounds are half
// the bytes per row the same runs allocated at c734cf7, where the plan's
// root and the driver's cursor made a row of their own for every row.
func TestStreamedRowBytes(t *testing.T) {
	if raceEnabled || staleRows {
		t.Skip("allocation counts are not meaningful under the race detector or poisoned rows")
	}
	const (
		query = `SELECT PROVENANCE id, owner, bal FROM acct WHERE grp < 10`
		want  = 1000
		runs  = 20
	)
	var vals []string
	for i := 0; i < 2*want; i++ {
		vals = append(vals, fmt.Sprintf("(%d, 'owner-%d', %d, %d)", i, i%37, i%20, 100+i))
	}
	load := []string{
		`CREATE TABLE acct (id int, owner text, grp int, bal int)`,
		`INSERT INTO acct VALUES ` + strings.Join(vals, ", "),
	}

	// The wire path: an in-process server on loopback.
	edb := engine.NewDB()
	s := edb.NewSession()
	for _, q := range load {
		if _, err := s.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(edb, server.Config{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	}()

	for _, tc := range []struct {
		name, dsn string
		load      bool
		max       float64 // bytes per row: half of c734cf7's
	}{
		{"wire", "tcp://" + l.Addr().String(), false, 415.1 / 2},
		{"embedded", "mem://", true, 193.4 / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := sql.Open("perm", tc.dsn)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			db.SetMaxOpenConns(1)
			if tc.load {
				for _, q := range load {
					if _, err := db.Exec(q); err != nil {
						t.Fatal(err)
					}
				}
			}
			stream := func() {
				rows, err := db.Query(query)
				if err != nil {
					t.Fatal(err)
				}
				defer rows.Close()
				cols, _ := rows.Columns()
				dest := make([]any, len(cols))
				for i := range dest {
					dest[i] = new(any)
				}
				n := 0
				for rows.Next() {
					if err := rows.Scan(dest...); err != nil {
						t.Fatal(err)
					}
					n++
				}
				if err := rows.Err(); err != nil || n != want {
					t.Fatalf("%d rows, %v; want %d", n, err, want)
				}
			}
			for i := 0; i < 3; i++ {
				stream()
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				stream()
			}
			runtime.ReadMemStats(&after)
			got := float64(after.TotalAlloc-before.TotalAlloc) / (runs * want)
			t.Logf("%s: %.1f bytes per streamed row", tc.name, got)
			if got > tc.max {
				t.Errorf("%s: %.1f bytes per streamed row, want at most %.1f (half of c734cf7's)", tc.name, got, tc.max)
			}
		})
	}
}
