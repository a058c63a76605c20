package wire

import (
	"fmt"
	"net"
	"testing"
	"time"

	"perm/internal/value"
)

// TestCursorReadsOneFrameAtATime drives a Client against a scripted peer
// over a synchronous pipe. With fetch size 0 the server streams every batch
// without suspending; the cursor must hand the call back after the first
// RowBatch frame (the peer refuses to send the second until Execute has
// returned), hold one batch at a time however long the result, and on Close
// read through to Complete without sending ClosePortal.
func TestCursorReadsOneFrameAtATime(t *testing.T) {
	const batches, perBatch = 40, 4
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := &Client{nc: a, conn: NewConn(a)}
	srv := NewConn(b)

	returned := make(chan struct{})
	srvErr := make(chan error, 1)
	stream := func(wait <-chan struct{}) error {
		typ, body, err := srv.ReadMessage()
		if err != nil {
			return err
		}
		if typ != MsgExecute {
			return fmt.Errorf("peer got %q, want Execute", typ)
		}
		if req, err := DecodeExecute(body); err != nil || req.FetchSize != 0 {
			return fmt.Errorf("peer got %+v, %v; want fetch size 0", req, err)
		}
		desc := RowDesc{Names: []string{"i"}, Kinds: []value.Kind{value.KindInt}, IsProv: []bool{false}}
		if err := srv.WriteMessage(MsgRowDesc, desc.Encode(nil)); err != nil {
			return err
		}
		for i := 0; i < batches; i++ {
			rows := make([]value.Row, perBatch)
			for j := range rows {
				rows[j] = value.Row{value.NewInt(int64(i*perBatch + j))}
			}
			if err := srv.WriteMessage(MsgRowBatch, AppendRowBatch(nil, rows)); err != nil {
				return err
			}
			if err := srv.Flush(); err != nil {
				return err
			}
			if i == 0 && wait != nil {
				<-wait
			}
		}
		if err := srv.WriteMessage(MsgComplete, Complete{Tag: "SELECT"}.Encode(nil)); err != nil {
			return err
		}
		return srv.Flush()
	}
	go func() {
		err := stream(returned)
		if err == nil {
			err = stream(nil)
		}
		srvErr <- err
	}()

	execute := func() *Cursor {
		t.Helper()
		type opened struct {
			cur *Cursor
			err error
		}
		ch := make(chan opened, 1)
		go func() {
			cur, err := c.Execute("", "SELECT i FROM big", nil, 0)
			ch <- opened{cur, err}
		}()
		select {
		case o := <-ch:
			if o.err != nil {
				t.Fatalf("Execute: %v", o.err)
			}
			return o.cur
		case <-time.After(5 * time.Second):
			t.Fatal("Execute did not return after the first RowBatch frame")
			return nil
		}
	}

	cur := execute()
	close(returned)
	if len(cur.Desc.Names) != 1 || len(cur.pending) != perBatch {
		t.Fatalf("after Execute: desc %v, %d rows in hand, want 1 column and %d rows", cur.Desc.Names, len(cur.pending), perBatch)
	}
	for want := 0; ; want++ {
		row, err := cur.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if len(cur.pending) > perBatch {
			t.Fatalf("cursor holds %d rows, more than one batch of %d", len(cur.pending), perBatch)
		}
		if row == nil {
			if want != batches*perBatch {
				t.Fatalf("got %d rows, want %d", want, batches*perBatch)
			}
			break
		}
		if row[0].Int() != int64(want) {
			t.Fatalf("row %d = %v", want, row)
		}
	}
	if cur.Complete.Tag != "SELECT" {
		t.Fatalf("Complete = %+v", cur.Complete)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("Close of a finished cursor: %v", err)
	}

	// Abandon the second result after two rows: Close reads the rest, and
	// the peer (which would fail on anything but what it scripted) sees no
	// ClosePortal — it ends cleanly with its last Flush.
	cur = execute()
	for i := 0; i < 2; i++ {
		if _, err := cur.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("Close mid-stream: %v", err)
	}
	if cur.Complete.Tag != "SELECT" || c.cursor != nil || c.Broken() != nil {
		t.Fatalf("after Close: complete %+v, cursor %v, broken %v", cur.Complete, c.cursor, c.Broken())
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("peer: %v", err)
	}
}
