package wire

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"perm/internal/value"
)

// fakeNetConn adapts an in-memory buffer to net.Conn for codec tests.
type fakeNetConn struct {
	r io.Reader
	w io.Writer
}

func (fakeNetConn) Close() error                       { return nil }
func (fakeNetConn) LocalAddr() net.Addr                { return nil }
func (fakeNetConn) RemoteAddr() net.Addr               { return nil }
func (fakeNetConn) SetDeadline(t time.Time) error      { return nil }
func (fakeNetConn) SetReadDeadline(t time.Time) error  { return nil }
func (fakeNetConn) SetWriteDeadline(t time.Time) error { return nil }
func (c fakeNetConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c fakeNetConn) Write(p []byte) (int, error)      { return c.w.Write(p) }

// serverReadLimit mirrors the server's 1 MiB client-frame cap; the fuzz
// target exercises the codec under exactly the limit production runs with.
const fuzzReadLimit = 1 << 20

// FuzzWireFrame feeds arbitrary bytes through the frame reader and every
// payload decoder: nothing may panic, the read limit must hold, and
// payloads that decode must re-encode and re-decode to the same message
// (round-trip stability — non-canonical varints may differ in bytes, never
// in meaning).
func FuzzWireFrame(f *testing.F) {
	// Well-formed frames of each message family.
	frame := func(typ byte, payload []byte) []byte {
		var buf bytes.Buffer
		c := NewConn(fakeNetConn{w: &buf})
		c.WriteMessage(typ, payload)
		c.Flush()
		return buf.Bytes()
	}
	row := value.Row{value.NewInt(42), value.NewString("x"), value.Null, value.NewFloat(2.5), value.NewBool(true)}
	f.Add(frame(MsgHello, Hello{Version: ProtocolVersion, Client: "fuzz"}.Encode(nil)))
	f.Add(frame(MsgRowDesc, RowDesc{
		Names:  []string{"a", "prov_public_t_a"},
		Kinds:  []value.Kind{value.KindInt, value.KindString},
		IsProv: []bool{false, true},
	}.Encode(nil)))
	f.Add(frame(MsgRowBatch, AppendRowBatch(nil, []value.Row{row, row})))
	f.Add(frame(MsgExecute, Execute{Name: "s1", Args: []value.Value{value.NewInt(7), value.NewString("q")}, FetchSize: 64}.Encode(nil)))
	f.Add(frame(MsgParse, Parse{Name: "s1", SQL: "SELECT ?"}.Encode(nil)))
	f.Add(frame(MsgComplete, Complete{Tag: "SELECT 2", CacheHit: true, Execute: 12345}.Encode(nil)))
	f.Add(frame(MsgError, AppendError(nil, "boom", ErrCodeTimeout)))
	// Corruption seeds: truncated header, hostile length prefix, garbage.
	f.Add([]byte{'Q'})
	f.Add([]byte{'Q', 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{'w', 0, 0, 0, 3, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0x80}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		conn := NewConn(fakeNetConn{r: bytes.NewReader(data), w: io.Discard})
		conn.SetReadLimit(fuzzReadLimit)
		for {
			_, payload, err := conn.ReadMessage()
			if err != nil {
				break
			}
			if len(payload) > fuzzReadLimit {
				t.Fatalf("payload of %d bytes exceeded the read limit", len(payload))
			}
			fuzzDecoders(t, payload)
		}
	})
}

// fuzzDecoders runs one payload through every message decoder; decoders
// must never panic, and successfully decoded messages must survive an
// encode/decode round trip.
func fuzzDecoders(t *testing.T, payload []byte) {
	if h, err := DecodeHello(payload); err == nil {
		h2, err := DecodeHello(h.Encode(nil))
		if err != nil || h2 != h {
			t.Fatalf("Hello round trip: %+v vs %+v (%v)", h, h2, err)
		}
	}
	if m, err := DecodeHelloOK(payload); err == nil {
		m2, err := DecodeHelloOK(m.Encode(nil))
		if err != nil || m2 != m {
			t.Fatalf("HelloOK round trip: %+v vs %+v (%v)", m, m2, err)
		}
	}
	if d, err := DecodeRowDesc(payload); err == nil {
		d2, err := DecodeRowDesc(d.Encode(nil))
		if err != nil || !reflect.DeepEqual(d, d2) {
			t.Fatalf("RowDesc round trip: %+v vs %+v (%v)", d, d2, err)
		}
	}
	if c, err := DecodeComplete(payload); err == nil {
		c2, err := DecodeComplete(c.Encode(nil))
		if err != nil || c2 != c {
			t.Fatalf("Complete round trip: %+v vs %+v (%v)", c, c2, err)
		}
	}
	if p, err := DecodeParse(payload); err == nil {
		p2, err := DecodeParse(p.Encode(nil))
		if err != nil || p2 != p {
			t.Fatalf("Parse round trip: %+v vs %+v (%v)", p, p2, err)
		}
	}
	if e, err := DecodeExecute(payload); err == nil {
		e2, err := DecodeExecute(e.Encode(nil))
		if err != nil || !sameRow(e.Args, e2.Args) || e.Name != e2.Name || e.SQL != e2.SQL || e.FetchSize != e2.FetchSize {
			t.Fatalf("Execute round trip: %+v vs %+v (%v)", e, e2, err)
		}
	}
	if rows, err := DecodeRowBatch(payload); err == nil {
		rows2, err := DecodeRowBatch(AppendRowBatch(nil, rows))
		same := len(rows) == len(rows2)
		for i := 0; same && i < len(rows); i++ {
			same = sameRow(rows[i], rows2[i])
		}
		if err != nil || !same {
			t.Fatalf("RowBatch round trip: %v vs %v (%v)", rows, rows2, err)
		}
	}
	// The error decoder accepts anything by design (legacy bare-string
	// payloads); just exercise it.
	DecodeServerError(payload)
}

// sameRow reports whether two rows hold the same values of the same kinds.
// Values do not compare with == or reflect.DeepEqual: equal strings need not
// share a data pointer.
func sameRow(a, b value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() != b[i].Kind() || value.Distinct(a[i], b[i]) {
			return false
		}
	}
	return true
}
