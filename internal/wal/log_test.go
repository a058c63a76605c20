package wal

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"perm/internal/logx"
	"perm/internal/value"
	"perm/internal/wal/walfault"
)

// lockedBuffer is a bytes.Buffer the WAL's goroutines may write while the
// test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestWALFailureLogsAtError: an injected fsync failure makes the log refuse
// writes, and says so at ERROR, so a logger that keeps only warnings and
// worse still prints it; the Info records (checkpoints) do not pass.
func TestWALFailureLogsAtError(t *testing.T) {
	dir := t.TempDir()
	var out lockedBuffer
	var fail atomic.Bool
	hooks := &walfault.Hooks{SyncErr: func() error {
		if fail.Load() {
			return errors.New("injected: disk on fire")
		}
		return nil
	}}
	s, m, _ := testOpen(t, dir, Options{Sync: "always", Hooks: hooks, Log: logx.New(&out, "text", logx.LevelWarn, "permserver")})
	seed(t, s, 0, 2)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fail.Store(true)
	if _, err := s.Table("kv").Insert(value.Row{value.NewInt(9), value.NewInt(9)}); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("insert during fsync failure: %v, want ErrWALFailed", err)
	}
	_ = m.Close()

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("want the one failure record, got %q", out.String())
	}
	if l := lines[0]; !strings.Contains(l, " ERROR permserver: wal: FAILURE, refusing further writes ") ||
		!strings.Contains(l, `err="fsync: injected: disk on fire"`) {
		t.Fatalf("failure record %q", l)
	}
}
