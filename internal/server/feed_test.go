package server

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"perm/internal/engine"
	"perm/internal/logx"
	"perm/internal/resultmatrix"
	"perm/internal/wire"
	"perm/internal/workload"
)

// startRelay listens for followers and connects each to upstream. The
// follower's bytes pass as they are; every frame from upstream goes through
// tap, and what tap returns is forwarded in its place. tap runs on one
// goroutine per connection.
func startRelay(t *testing.T, upstream string, tap func(typ byte, payload []byte) []byte) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			down, err := l.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				down.Close()
				continue
			}
			go func() {
				io.Copy(up, down)
				up.Close()
				down.Close()
			}()
			go func() {
				defer down.Close()
				defer up.Close()
				src, dst := wire.NewConn(up), wire.NewConn(down)
				for {
					typ, body, err := src.ReadMessage()
					if err != nil {
						return
					}
					if dst.WriteMessage(typ, tap(typ, body)) != nil || dst.Flush() != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

// TestDamagedFeedFrameNeverApplied: a relay flips one bit inside the row
// image of the first change batch. The follower must refuse the batch before
// applying the record, log the stream error, resume from its applied LSN
// without a new snapshot, and end equal to the primary.
func TestDamagedFeedFrameNeverApplied(t *testing.T) {
	primary := engine.NewDB()
	if err := workload.LoadPaperExample(primary); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, primary, replCfg())
	defer shutdown()

	const marker = "feed-damage-X"
	var (
		mu      sync.Mutex
		damaged bool
		out     logBuffer
	)
	relay := startRelay(t, addr, func(typ byte, payload []byte) []byte {
		mu.Lock()
		defer mu.Unlock()
		if typ != wire.MsgChanges || damaged {
			return payload
		}
		damaged = true
		i := bytes.Index(payload, []byte(marker))
		if i < 0 {
			t.Errorf("first change batch does not carry the inserted row: %q", payload)
			return payload
		}
		payload[i+len(marker)-1] ^= 1 // 'X' becomes 'Y'
		return payload
	})
	fcfg := fastFollower(relay)
	fcfg.Log = out.logger(logx.LevelInfo)
	replica := engine.NewDB()
	f := StartFollower(replica, fcfg)
	defer f.Stop()
	waitCaughtUp(t, primary, f)

	s := primary.NewSession()
	mustExec(t, s, `INSERT INTO messages VALUES (900, '`+marker+`', 1)`)
	mustExec(t, s, `INSERT INTO messages VALUES (901, 'after the damage', 2)`)
	s.Close()
	waitCaughtUp(t, primary, f)
	assertIdentical(t, primary, replica, resultmatrix.PaperSuite)

	mu.Lock()
	defer mu.Unlock()
	if !damaged {
		t.Fatal("no change batch passed the relay")
	}
	if len(out.records(t, "replication stream failed")) == 0 {
		t.Fatalf("the damaged batch logged no stream error; logs: %q", out.String())
	}
	if n := f.Snapshots(); n != 1 {
		t.Fatalf("follower took %d snapshots, want 1: a damaged frame resumes, it does not re-seed", n)
	}
}

// TestTruncatedSubscribeRefused: a Subscribe frame cut after its LSN is
// refused. Read leniently, its missing epoch would be 0 and pass the fencing
// check of a node serving a newer epoch.
func TestTruncatedSubscribeRefused(t *testing.T) {
	db := seedDB(t)
	db.SetEpoch(3)
	addr, shutdown := startServer(t, db, replCfg())
	defer shutdown()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn := wire.NewConn(nc)
	if _, err := wire.Handshake(conn, "test"); err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteMessage(wire.MsgSubscribe, binary.AppendUvarint(nil, 0)); err != nil {
		t.Fatal(err)
	}
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}
	typ, body, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgError {
		t.Fatalf("truncated subscribe answered with %q, want an error", typ)
	}
	if msg := wire.DecodeServerError(body).Message; !strings.Contains(msg, "malformed subscribe") {
		t.Fatalf("error = %q", msg)
	}
}
