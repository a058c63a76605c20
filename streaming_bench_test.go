package perm_test

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"perm/internal/engine"
	"perm/internal/server"
	"perm/internal/wire"
)

// BenchmarkStreamingQuery measures what end-to-end streaming buys on a wide
// provenance join whose result dwarfs the row-batch size: the materialized
// path's cost (allocs/op, B/op) scales linearly with result cardinality
// because every row is buffered before the first one is delivered, while
// the streaming path's cost to the first batch is independent of
// cardinality — the executor produces only what the consumer has asked
// for, embedded and over the wire alike. full-drain variants report the
// per-row cost of the batched wire encoding. Tracked in PERFORMANCE.md §6.
func BenchmarkStreamingQuery(b *testing.B) {
	// users is the (small) hash-join build side; big scales the probe side,
	// so the join pipeline streams and result cardinality == len(big).
	const query = `SELECT PROVENANCE b.s, u.name FROM big b, users u WHERE b.u = u.id`
	const firstBatch = 64

	setup := func(b *testing.B, rows int) *engine.DB {
		b.Helper()
		db := engine.NewDB()
		s := db.NewSession()
		defer s.Close()
		mustExec := func(q string) {
			b.Helper()
			if _, err := s.Execute(q); err != nil {
				b.Fatal(err)
			}
		}
		mustExec(`CREATE TABLE users (id int, name text)`)
		ins := `INSERT INTO users VALUES (0, 'user 0')`
		for i := 1; i < 16; i++ {
			ins += fmt.Sprintf(", (%d, 'user %d')", i, i)
		}
		mustExec(ins)
		mustExec(`CREATE TABLE big (i int, u int, s text)`)
		for at := 0; at < rows; {
			chunk := rows - at
			if chunk > 512 {
				chunk = 512
			}
			stmt := fmt.Sprintf(`INSERT INTO big VALUES (%d, %d, 'payload payload payload %d')`, at, at%16, at)
			for k := 1; k < chunk; k++ {
				i := at + k
				stmt += fmt.Sprintf(", (%d, %d, 'payload payload payload %d')", i, i%16, i)
			}
			mustExec(stmt)
			at += chunk
		}
		return db
	}

	start := func(b *testing.B, db *engine.DB) string {
		b.Helper()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := server.New(db, server.Config{})
		done := make(chan error, 1)
		go func() { done <- srv.Serve(l) }()
		b.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			<-done
		})
		return l.Addr().String()
	}

	for _, rows := range []int{1000, 10000, 50000} {
		rows := rows
		b.Run(fmt.Sprintf("materialized/rows-%d", rows), func(b *testing.B) {
			db := setup(b, rows)
			sess := db.NewSession()
			defer sess.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sess.Execute(query)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != rows {
					b.Fatalf("got %d rows", len(res.Rows))
				}
			}
		})
		b.Run(fmt.Sprintf("stream-first-batch/rows-%d", rows), func(b *testing.B) {
			db := setup(b, rows)
			sess := db.NewSession()
			defer sess.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs, err := sess.Query(query)
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < firstBatch; k++ {
					if _, err := rs.Next(); err != nil {
						b.Fatal(err)
					}
				}
				rs.Close()
			}
		})
		b.Run(fmt.Sprintf("cursor-first-batch/rows-%d", rows), func(b *testing.B) {
			db := setup(b, rows)
			addr := start(b, db)
			c, err := wire.Dial(addr)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur, err := c.Execute("", query, nil, firstBatch)
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < firstBatch; k++ {
					if _, err := cur.Next(); err != nil {
						b.Fatal(err)
					}
				}
				if err := cur.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Full drain over the wire: per-row cost of the batched streaming
	// encoding (both sides hold at most one batch at a time).
	b.Run("wire-full-drain/rows-10000", func(b *testing.B) {
		db := setup(b, 10000)
		addr := start(b, db)
		c, err := wire.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wr, err := c.Execute("", query, nil, 0)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for {
				row, err := wr.Next()
				if err != nil {
					b.Fatal(err)
				}
				if row == nil {
					break
				}
				n++
			}
			if n != 10000 {
				b.Fatalf("drained %d rows", n)
			}
		}
	})
}
