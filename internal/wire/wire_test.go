package wire

import (
	"bytes"
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"perm/internal/value"
)

func TestValueRoundTrip(t *testing.T) {
	vals := []value.Value{
		value.Null,
		value.NewBool(true),
		value.NewBool(false),
		value.NewInt(0),
		value.NewInt(-1),
		value.NewInt(math.MaxInt64),
		value.NewInt(math.MinInt64),
		value.NewFloat(0),
		value.NewFloat(-3.25),
		value.NewFloat(math.Inf(1)),
		value.NewString(""),
		value.NewString("hello"),
		value.NewString("quotes ' and \x00 bytes and ünïcode"),
	}
	buf := AppendRow(nil, vals)
	r := NewReader(buf)
	got := r.Row()
	if err := r.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(vals) {
		t.Fatalf("arity %d, want %d", len(got), len(vals))
	}
	for i, v := range vals {
		if got[i].Kind() != v.Kind() || got[i].String() != v.String() {
			t.Errorf("value %d: got %v (%s), want %v (%s)", i, got[i], got[i].Kind(), v, v.Kind())
		}
	}
}

func TestMessageRoundTrips(t *testing.T) {
	h, err := DecodeHello(Hello{Version: 7, Client: "c"}.Encode(nil))
	if err != nil || h.Version != 7 || h.Client != "c" {
		t.Fatalf("hello round trip: %+v, %v", h, err)
	}
	helloOK := HelloOK{Version: 1, Server: "perm/1", Epoch: 3, Role: "replica"}
	ok, err := DecodeHelloOK(helloOK.Encode(nil))
	if err != nil || ok != helloOK {
		t.Fatalf("helloOK round trip: %+v, %v", ok, err)
	}
	desc := RowDesc{
		Names:  []string{"i", "prov_public_r_i"},
		Kinds:  []value.Kind{value.KindInt, value.KindInt},
		IsProv: []bool{false, true},
	}
	got, err := DecodeRowDesc(desc.Encode(nil))
	if err != nil || !reflect.DeepEqual(got, desc) {
		t.Fatalf("rowdesc round trip: %+v, %v", got, err)
	}
	done := Complete{Tag: "SELECT 4", CacheHit: true, Parse: 1, Analyze: 2, Rewrite: 3, Plan: 4, Execute: 5}
	gotC, err := DecodeComplete(done.Encode(nil))
	if err != nil || gotC != done {
		t.Fatalf("complete round trip: %+v, %v", gotC, err)
	}
	sub := Subscribe{After: 300, Force: true, Origin: 0xfeed, ResumeHash: 1 << 63, Epoch: 2}
	if got, err := DecodeSubscribe(sub.Encode(nil)); err != nil || got != sub {
		t.Fatalf("subscribe round trip: %+v, %v", got, err)
	}
	live := SubLive{LSN: 300, Heartbeat: time.Second, Epoch: 2}
	if got, err := DecodeSubLive(live.Encode(nil)); err != nil || got != live {
		t.Fatalf("sublive round trip: %+v, %v", got, err)
	}
	hb := Heartbeat{LSN: 301, Epoch: 2}
	if got, err := DecodeHeartbeat(hb.Encode(nil)); err != nil || got != hb {
		t.Fatalf("heartbeat round trip: %+v, %v", got, err)
	}

	// One protocol version means no optional field: a payload cut short
	// anywhere, or followed by one byte more, is refused.
	for _, m := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"HelloOK", helloOK.Encode(nil), func(b []byte) error { _, err := DecodeHelloOK(b); return err }},
		{"Complete", done.Encode(nil), func(b []byte) error { _, err := DecodeComplete(b); return err }},
		{"Subscribe", sub.Encode(nil), func(b []byte) error { _, err := DecodeSubscribe(b); return err }},
		{"SubLive", live.Encode(nil), func(b []byte) error { _, err := DecodeSubLive(b); return err }},
		{"Heartbeat", hb.Encode(nil), func(b []byte) error { _, err := DecodeHeartbeat(b); return err }},
	} {
		for cut := 0; cut < len(m.payload); cut++ {
			if m.decode(m.payload[:cut]) == nil {
				t.Errorf("%s cut to %d of %d bytes decoded", m.name, cut, len(m.payload))
			}
		}
		if m.decode(append(m.payload, 0)) == nil {
			t.Errorf("%s with a trailing byte decoded", m.name)
		}
	}
}

func TestReaderCorruptInputs(t *testing.T) {
	// Truncated string length.
	r := NewReader([]byte{0xff})
	_ = r.String()
	if r.Err() == nil {
		t.Error("truncated uvarint: want error")
	}
	// String length pointing past the payload.
	r = NewReader(AppendString(nil, "abcdef")[:3])
	_ = r.String()
	if r.Err() == nil {
		t.Error("overlong string: want error")
	}
	// Unknown value kind.
	r = NewReader([]byte{0x7f})
	r.Value()
	if r.Err() == nil {
		t.Error("unknown kind: want error")
	}
	// Row arity larger than the payload could hold.
	r = NewReader(binary_AppendUvarint(nil, 1<<40))
	r.Row()
	if r.Err() == nil {
		t.Error("absurd arity: want error")
	}
	// Errors stick.
	if r.Byte() != 0 || r.Err() == nil {
		t.Error("sticky error violated")
	}
}

// binary_AppendUvarint avoids importing encoding/binary in the test twice.
func binary_AppendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func TestFrameRoundTripOverPipe(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	payload := Execute{SQL: "SELECT PROVENANCE i FROM r"}.Encode(nil)
	errCh := make(chan error, 1)
	go func() {
		if err := ca.WriteMessage(MsgExecute, payload); err != nil {
			errCh <- err
			return
		}
		errCh <- ca.Flush()
	}()
	typ, body, err := cb.ReadMessage()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if werr := <-errCh; werr != nil {
		t.Fatalf("write: %v", werr)
	}
	if typ != MsgExecute {
		t.Fatalf("type %q, want %q", typ, MsgExecute)
	}
	if !bytes.Equal(body, payload) {
		t.Fatalf("payload mismatch")
	}
	a.Close()
	b.Close()
}

func TestFrameSizeLimit(t *testing.T) {
	// Oversized writes are rejected before touching the socket.
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	conn := NewConn(a)
	if err := conn.WriteMessage(MsgRowBatch, make([]byte, MaxFrameSize+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestServerErrorCodeRoundTrip(t *testing.T) {
	payload := AppendError(nil, "read-only replica", ErrCodeReadOnly)
	e := DecodeServerError(payload)
	if e.Message != "read-only replica" || e.Code != ErrCodeReadOnly {
		t.Fatalf("decoded %+v", e)
	}
	// A bare-string payload (no code suffix) decodes as generic.
	e = DecodeServerError(AppendString(nil, "plain"))
	if e.Message != "plain" || e.Code != ErrCodeGeneric {
		t.Fatalf("decoded bare payload as %+v", e)
	}
}

func TestReaderRemaining(t *testing.T) {
	payload := AppendString(nil, "abc")
	r := NewReader(payload)
	if r.Remaining() != len(payload) {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
	if s := r.String(); s != "abc" {
		t.Fatalf("String = %q", s)
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining after full decode = %d", r.Remaining())
	}
}
