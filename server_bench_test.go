package perm_test

import (
	"context"
	"database/sql"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"perm"
	"perm/internal/engine"
	"perm/internal/server"
	"perm/internal/wire"

	_ "perm/driver"
)

// BenchmarkServerQuery measures the network round trip of the wire protocol
// against the embedded engine baseline: the same provenance aggregation over
// the same database, through (a) the engine directly, (b) a raw wire.Client
// on a loopback TCP connection, (c) database/sql with the perm driver, and
// (d) 8-way concurrent driver connections (server throughput rather than
// single-connection latency). Tracked in PERFORMANCE.md §4.
func BenchmarkServerQuery(b *testing.B) {
	const query = `SELECT PROVENANCE s, count(*) FROM r GROUP BY s`

	setup := func(b *testing.B) *perm.DB {
		db := perm.Open()
		db.MustExec(`CREATE TABLE r (i int, s text)`)
		for c := 0; c < 4; c++ {
			stmt := fmt.Sprintf(`INSERT INTO r VALUES (%d, 'g%d')`, c, c%4)
			for i := 1; i < 64; i++ {
				stmt += fmt.Sprintf(", (%d, 'g%d')", c*64+i, (c*64+i)%4)
			}
			db.MustExec(stmt)
		}
		return db
	}

	start := func(b *testing.B, db *perm.DB) string {
		b.Helper()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := server.New(db.Engine(), server.Config{})
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

	b.Run("embedded", func(b *testing.B) {
		db := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(query); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("wire", func(b *testing.B) {
		db := setup(b)
		addr := start(b, db)
		c, err := wire.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.ExecuteDrain("", query, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("driver", func(b *testing.B) {
		db := setup(b)
		addr := start(b, db)
		sdb, err := sql.Open("perm", "tcp://"+addr)
		if err != nil {
			b.Fatal(err)
		}
		defer sdb.Close()
		sdb.SetMaxOpenConns(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := sdb.Query(query)
			if err != nil {
				b.Fatal(err)
			}
			for rows.Next() {
			}
			if err := rows.Err(); err != nil {
				b.Fatal(err)
			}
			rows.Close()
		}
	})

	b.Run("driver-parallel-8", func(b *testing.B) {
		db := setup(b)
		addr := start(b, db)
		sdb, err := sql.Open("perm", "tcp://"+addr)
		if err != nil {
			b.Fatal(err)
		}
		defer sdb.Close()
		sdb.SetMaxOpenConns(8)
		sdb.SetMaxIdleConns(8)
		b.ReportAllocs()
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				rows, err := sdb.Query(query)
				if err != nil {
					b.Fatal(err)
				}
				for rows.Next() {
				}
				if err := rows.Err(); err != nil {
					b.Fatal(err)
				}
				rows.Close()
			}
		})
	})
}

// BenchmarkReplicaRead measures read scale-out — the point of the
// replication subsystem for a workload whose provenance queries are
// rewritten reads: the same provenance aggregation through 8 concurrent
// clients against (a) the primary alone, (b) a caught-up replica alone, and
// (c) the pool split across primary + replica. Tracked in PERFORMANCE.md §5.
func BenchmarkReplicaRead(b *testing.B) {
	const query = `SELECT PROVENANCE s, count(*) FROM r GROUP BY s`

	setup := func(b *testing.B) *perm.DB {
		db := perm.Open()
		db.MustExec(`CREATE TABLE r (i int, s text)`)
		for c := 0; c < 4; c++ {
			stmt := fmt.Sprintf(`INSERT INTO r VALUES (%d, 'g%d')`, c, c%4)
			for i := 1; i < 64; i++ {
				stmt += fmt.Sprintf(", (%d, 'g%d')", c*64+i, (c*64+i)%4)
			}
			db.MustExec(stmt)
		}
		return db
	}

	start := func(b *testing.B, edb *engine.DB, cfg server.Config) string {
		b.Helper()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := server.New(edb, cfg)
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

	// One primary, one caught-up replica.
	db := setup(b)
	primaryAddr := start(b, db.Engine(), server.Config{HeartbeatInterval: 50 * time.Millisecond})
	replica := engine.NewDB()
	f := server.StartFollower(replica, server.FollowerConfig{PrimaryAddr: primaryAddr})
	b.Cleanup(f.Stop)
	target := db.Engine().Store().Log().LastLSN()
	for deadline := time.Now().Add(10 * time.Second); f.Status().AppliedLSN < target; {
		if time.Now().After(deadline) {
			b.Fatalf("replica stuck at %d, want %d", f.Status().AppliedLSN, target)
		}
		time.Sleep(time.Millisecond)
	}
	replicaAddr := start(b, replica, server.Config{})

	pool := func(b *testing.B, dsn string, conns int) *sql.DB {
		b.Helper()
		sdb, err := sql.Open("perm", dsn)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { sdb.Close() })
		sdb.SetMaxOpenConns(conns)
		sdb.SetMaxIdleConns(conns)
		return sdb
	}
	runPool := func(b *testing.B, dbs ...*sql.DB) {
		var n atomic.Uint64
		b.ReportAllocs()
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				sdb := dbs[int(n.Add(1))%len(dbs)]
				rows, err := sdb.Query(query)
				if err != nil {
					b.Fatal(err)
				}
				for rows.Next() {
				}
				if err := rows.Err(); err != nil {
					b.Fatal(err)
				}
				rows.Close()
			}
		})
	}

	b.Run("primary-only-8", func(b *testing.B) {
		runPool(b, pool(b, "tcp://"+primaryAddr, 8))
	})
	b.Run("replica-only-8", func(b *testing.B) {
		runPool(b, pool(b, "tcp://"+replicaAddr+"?readonly", 8))
	})
	b.Run("primary-plus-replica-8", func(b *testing.B) {
		runPool(b,
			pool(b, "tcp://"+primaryAddr, 4),
			pool(b, "tcp://"+replicaAddr+"?readonly", 4))
	})
}
