package cluster

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"perm/internal/logx"
	"perm/internal/wire"
)

// TestStrandedPrimaryLogsOnce: while the primary's lease has expired and no
// healthy replica can be promoted, each probe round re-evaluates the same
// state; it is logged once at ERROR when it begins and once at INFO when the
// primary serves again, not once a round.
func TestStrandedPrimaryLogsOnce(t *testing.T) {
	var buf bytes.Buffer
	members := []string{"primary:1", "replica:2"}
	c := NewCoordinator(CoordinatorConfig{Members: members, LeaseTimeout: time.Nanosecond,
		Log: logx.New(&buf, "text", logx.LevelInfo, "coordinator")})
	c.primary = members[0]
	time.Sleep(time.Millisecond)
	for range 50 {
		c.evaluate()
	}
	if n := strings.Count(buf.String(), " ERROR "); n != 1 {
		t.Fatalf("%d ERROR records over 50 rounds, want 1:\n%s", n, buf.String())
	}
	p := c.members[members[0]]
	p.Healthy, p.Status = true, wire.NodeStatus{Role: "primary"}
	for range 5 {
		c.evaluate()
	}
	if n := strings.Count(buf.String(), " INFO "); n != 1 || !strings.Contains(buf.String(), "primary serving again") {
		t.Fatalf("%d INFO records once the primary served again, want 1:\n%s", n, buf.String())
	}
}
