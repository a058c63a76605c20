package perm_test

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"perm/internal/engine"
)

// TestPointReadTouchesOneChunk: a point read over a key loaded in order
// reads one 512-slot heap chunk, whatever the table's size. The scan under
// the Select skips every chunk whose zone — the range of INT values its row
// versions hold per column — cannot hold the key; EXPLAIN ANALYZE reports
// the chunks it read out of those in its range.
func TestPointReadTouchesOneChunk(t *testing.T) {
	const rows, chunkSlots = 20_000, 512
	s := engine.NewDB().NewSession()
	defer s.Close()
	if _, err := s.Execute(`CREATE TABLE acct (id int, owner text, bal int, grp int)`); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < rows; lo += 1000 {
		var vals []string
		for i := lo; i < lo+1000; i++ {
			vals = append(vals, fmt.Sprintf("(%d, 'owner%d', 100, %d)", i, i%500, i%16))
		}
		if _, err := s.Execute(`INSERT INTO acct VALUES ` + strings.Join(vals, ", ")); err != nil {
			t.Fatal(err)
		}
	}
	chunks := regexp.MustCompile(`Scan acct .*chunks=(\d+)/(\d+)`)
	for _, id := range []int{0, 7, 9_999, 19_999} {
		res, err := s.Execute(fmt.Sprintf(`EXPLAIN ANALYZE SELECT id, owner, bal FROM acct WHERE id = %d`, id))
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		for _, r := range res.Rows {
			out.WriteString(r[0].Str() + "\n")
		}
		m := chunks.FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("id = %d: no scan line with chunks=read/total:\n%s", id, out.String())
		}
		read, total := atoi(t, m[1]), atoi(t, m[2])
		if total != (rows+chunkSlots-1)/chunkSlots {
			t.Fatalf("id = %d: %d chunks in the scan's range, want %d", id, total, (rows+chunkSlots-1)/chunkSlots)
		}
		if read*chunkSlots > chunkSlots {
			t.Fatalf("id = %d: read %d chunks (%d positions) of %d, want at most %d positions:\n%s", id, read, read*chunkSlots, total, chunkSlots, out.String())
		}
		if !strings.Contains(out.String(), "Rows: 1\n") {
			t.Fatalf("id = %d: the point read did not find its row:\n%s", id, out.String())
		}
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
