package logx

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func fixed(l *Logger) *Logger {
	l.out.now = func() time.Time { return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC) }
	return l
}

func TestTextFormat(t *testing.T) {
	var buf bytes.Buffer
	l := fixed(New(&buf, "text", LevelInfo, "permserver"))
	l.Info("slow query", "duration", 1500*time.Millisecond, "sql", "select 1", "rows", 42)
	got := buf.String()
	want := `2026-01-02T03:04:05Z INFO permserver: slow query duration=1.5s sql="select 1" rows=42` + "\n"
	if got != want {
		t.Fatalf("text record\n got %q\nwant %q", got, want)
	}
}

func TestJSONFormat(t *testing.T) {
	var buf bytes.Buffer
	l := fixed(New(&buf, "json", LevelInfo, "permserver"))
	l.Warn("reconnect", "attempt", 3, "err", strings.Repeat("x", 3))
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not one JSON object per line: %v in %q", err, buf.String())
	}
	if rec["level"] != "warn" || rec["msg"] != "reconnect" || rec["component"] != "permserver" {
		t.Fatalf("bad record %v", rec)
	}
	if rec["attempt"] != float64(3) || rec["err"] != "xxx" {
		t.Fatalf("fields not native: %v", rec)
	}
}

func TestLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, "text", LevelWarn, "")
	l.Debug("nope")
	l.Info("nope")
	l.With("remote", "peer").Info("a child keeps its parent's level")
	if buf.Len() != 0 {
		t.Fatalf("below-threshold records emitted: %q", buf.String())
	}
	l.Error("yes")
	if !strings.Contains(buf.String(), "ERROR yes") {
		t.Fatalf("error record missing: %q", buf.String())
	}
}

// TestWith: a child logger writes its bound fields before each record's
// own, through its parent's writer and level; a nil logger and its children
// drop everything.
func TestWith(t *testing.T) {
	var buf bytes.Buffer
	l := fixed(New(&buf, "text", LevelInfo, "permserver"))
	c := l.With("remote", "10.0.0.1:5000")
	c.With("stmt", 7).Warn("slow query", "rows", 3)
	c.Debug("below the parent's level")
	l.Info("parent unchanged")
	l.With("lone").Info("odd fields", "k", "v") // a lone bound value is keyed "arg"
	want := "2026-01-02T03:04:05Z WARN permserver: slow query remote=10.0.0.1:5000 stmt=7 rows=3\n" +
		"2026-01-02T03:04:05Z INFO permserver: parent unchanged\n" +
		"2026-01-02T03:04:05Z INFO permserver: odd fields arg=lone k=v\n"
	if buf.String() != want {
		t.Fatalf("child records\n got %q\nwant %q", buf.String(), want)
	}

	var nilLogger *Logger
	nilLogger.Info("dropped")
	if nilLogger.With("k", "v") != nil {
		t.Fatal("a nil logger's child is not nil")
	}
	nilLogger.With("k", "v").Error("dropped")
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{"debug": LevelDebug, "": LevelInfo, "WARN": LevelWarn, "error": LevelError} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("bad level accepted")
	}
}

// TestConcurrentChildren: children of one logger write through its one lock
// from many goroutines at once, and no record is torn or lost.
func TestConcurrentChildren(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, "json", LevelInfo, "")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := l.With("goroutine", g)
			for i := 0; i < 100; i++ {
				c.Info("record", "i", i)
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("%d records, want 400", len(lines))
	}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec["goroutine"] == nil || rec["i"] == nil {
			t.Fatalf("torn record %q: %v", line, err)
		}
	}
}
