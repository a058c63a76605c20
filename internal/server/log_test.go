package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"perm/internal/logx"
	"perm/internal/value"
	"perm/internal/wire"
)

// logBuffer collects a JSON logger's records; the server's connections and
// a follower write it while the test reads.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// logger returns a JSON logger that writes to b and drops records below min.
func (b *logBuffer) logger(min logx.Level) *logx.Logger {
	return logx.New(b, "json", min, "permserver")
}

// records decodes every record written so far whose msg is msg.
func (b *logBuffer) records(t *testing.T, msg string) []map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var recs []map[string]any
	for _, line := range bytes.Split(b.buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec["msg"] == msg {
			recs = append(recs, rec)
		}
	}
	return recs
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowQueryLogOverWire: a statement over the threshold, run through a
// connection with a bound parameter, logs exactly one WARN record through
// the server's logger, carrying the peer, the SQL text, the duration and the
// parameter count, and never the bound value.
func TestSlowQueryLogOverWire(t *testing.T) {
	var out logBuffer
	addr, shutdown := startServer(t, seedDB(t), Config{Log: out.logger(logx.LevelWarn)})
	defer shutdown()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.ExecuteDrain("", `SET slow_query_ms = 0`, nil); err != nil {
		t.Fatal(err)
	}
	const query = `SELECT i FROM r WHERE s = ?`
	const secret = "bound-value-never-logged"
	if _, err := c.ExecuteDrain("", query, []value.Value{value.NewString(secret)}); err != nil {
		t.Fatal(err)
	}

	var got []map[string]any
	for _, rec := range out.records(t, "slow query") {
		if rec["sql"] == query {
			got = append(got, rec)
		}
	}
	if len(got) != 1 {
		t.Fatalf("want one slow-query record for the statement, got %d in %q", len(got), out.String())
	}
	rec := got[0]
	if rec["level"] != "warn" {
		t.Errorf("level = %v, want warn", rec["level"])
	}
	if remote, _ := rec["remote"].(string); !strings.HasPrefix(remote, "127.0.0.1:") {
		t.Errorf("remote = %v, want the client's address", rec["remote"])
	}
	if d, _ := rec["duration"].(string); d == "" {
		t.Errorf("duration = %v", rec["duration"])
	}
	if rec["params"] != float64(1) {
		t.Errorf("params = %v, want 1", rec["params"])
	}
	if strings.Contains(out.String(), secret) {
		t.Errorf("bound value leaked into the log: %q", out.String())
	}
}
