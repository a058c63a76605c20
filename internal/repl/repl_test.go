package repl

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"perm/internal/catalog"
	"perm/internal/value"
)

func TestLogAppendSince(t *testing.T) {
	l := NewChangeLog()
	if got := l.LastLSN(); got != 0 {
		t.Fatalf("empty log LastLSN = %d", got)
	}
	for i := 0; i < 5; i++ {
		lsn := l.Append(Record{Kind: KindInsert, Table: "t"})
		if lsn != uint64(i+1) {
			t.Fatalf("append %d assigned LSN %d", i, lsn)
		}
	}
	recs, ok := l.Since(0, 0)
	if !ok || len(recs) != 5 || recs[0].LSN != 1 || recs[4].LSN != 5 {
		t.Fatalf("Since(0) = %d records, ok=%v", len(recs), ok)
	}
	recs, ok = l.Since(3, 0)
	if !ok || len(recs) != 2 || recs[0].LSN != 4 {
		t.Fatalf("Since(3) = %+v, ok=%v", recs, ok)
	}
	recs, ok = l.Since(5, 0)
	if !ok || len(recs) != 0 {
		t.Fatalf("Since(5) = %d records, ok=%v", len(recs), ok)
	}
	if recs, ok = l.Since(2, 2); !ok || len(recs) != 2 || recs[1].LSN != 4 {
		t.Fatalf("Since(2, max 2) = %+v", recs)
	}
}

func TestLogTrim(t *testing.T) {
	l := NewChangeLog()
	rec := Record{Kind: KindInsert, Table: "t"}
	l.SetRetentionBytes(3 * recordCost(rec))
	for i := 0; i < 10; i++ {
		l.Append(rec)
	}
	if got := l.LastLSN(); got != 10 {
		t.Fatalf("LastLSN = %d", got)
	}
	if got := l.OldestLSN(); got != 8 {
		t.Fatalf("OldestLSN = %d", got)
	}
	if _, ok := l.Since(5, 0); ok {
		t.Fatal("Since(5) should report a trimmed position")
	}
	// The boundary: after == OldestLSN-1 is exactly the oldest retained tail.
	recs, ok := l.Since(7, 0)
	if !ok || len(recs) != 3 || recs[0].LSN != 8 {
		t.Fatalf("Since(7) = %+v, ok=%v", recs, ok)
	}
}

func TestLogAppendAt(t *testing.T) {
	l := NewChangeLog()
	if err := l.AppendAt(Record{LSN: 1, Kind: KindInsert}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendAt(Record{LSN: 3, Kind: KindInsert}); err == nil {
		t.Fatal("gap accepted")
	}
	if err := l.AppendAt(Record{LSN: 1, Kind: KindInsert}); err == nil {
		t.Fatal("replay accepted")
	}
	if err := l.AppendAt(Record{LSN: 2, Kind: KindInsert}); err != nil {
		t.Fatal(err)
	}
	if l.LastLSN() != 2 {
		t.Fatalf("LastLSN = %d", l.LastLSN())
	}
}

func TestLogReset(t *testing.T) {
	l := NewChangeLog()
	l.Append(Record{Kind: KindInsert})
	l.Reset(41)
	if l.LastLSN() != 41 {
		t.Fatalf("LastLSN after Reset = %d", l.LastLSN())
	}
	if _, ok := l.Since(40, 0); ok {
		t.Fatal("history before the reset position should be unavailable")
	}
	if lsn := l.Append(Record{Kind: KindInsert}); lsn != 42 {
		t.Fatalf("first LSN after Reset(41) = %d", lsn)
	}
}

func TestLogWaitCh(t *testing.T) {
	l := NewChangeLog()
	ch := l.WaitCh()
	select {
	case <-ch:
		t.Fatal("channel closed before any append")
	default:
	}
	done := make(chan struct{})
	go func() {
		<-ch
		close(done)
	}()
	l.Append(Record{Kind: KindInsert})
	<-done
}

// TestLogConcurrentAppend exercises the append/Since/WaitCh paths under the
// race detector.
func TestLogConcurrentAppend(t *testing.T) {
	l := NewChangeLog()
	l.SetRetentionBytes(64 * recordCost(Record{Kind: KindInsert, Table: "t"}))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Append(Record{Kind: KindInsert, Table: "t"})
			}
		}()
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		var pos uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			ch := l.WaitCh()
			recs, ok := l.Since(pos, 16)
			if !ok {
				pos = l.LastLSN()
				continue
			}
			if len(recs) == 0 {
				select {
				case <-ch:
				case <-stop:
					return
				}
				continue
			}
			for i := 1; i < len(recs); i++ {
				if recs[i].LSN != recs[i-1].LSN+1 {
					t.Errorf("non-contiguous tail: %d then %d", recs[i-1].LSN, recs[i].LSN)
					return
				}
			}
			pos = recs[len(recs)-1].LSN
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	if got := l.LastLSN(); got != 800 {
		t.Fatalf("LastLSN = %d, want 800", got)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rows := []value.Row{
		{value.NewInt(1), value.NewString("it's ? here"), value.Null},
		{value.NewInt(2), value.NewString(""), value.NewFloat(2.5)},
	}
	olds := []value.Row{
		{value.NewInt(1), value.NewString("old"), value.NewBool(true)},
		{value.NewInt(2), value.NewString("older"), value.NewBool(false)},
	}
	recs := []Record{
		{LSN: 1, Kind: KindCreateTable, Table: "t", Columns: []catalog.Column{
			{Name: "id", Type: value.KindInt, NotNull: true},
			{Name: "txt", Type: value.KindString},
		}},
		{LSN: 2, Kind: KindInsert, Table: "t", Rows: rows},
		{LSN: 3, Kind: KindUpdate, Table: "t", Rows: rows, OldRows: olds},
		{LSN: 4, Kind: KindDelete, Table: "t", Rows: rows[:1]},
		{LSN: 5, Kind: KindCreateView, Table: "v", ViewText: "SELECT id FROM t", Columns: []catalog.Column{
			{Name: "id", Type: value.KindInt},
		}},
		{LSN: 6, Kind: KindDropView, Table: "v"},
		{LSN: 7, Kind: KindAnalyze, Table: ""},
		{LSN: 8, Kind: KindDropTable, Table: "t"},
	}
	var payload []byte
	for _, rec := range recs {
		payload = AppendRecordFrame(payload, rec)
	}
	var got []Record
	if err := ReadRecordFrames(payload, func(rec Record) error {
		got = append(got, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	same := len(recs) == len(got)
	for i := 0; same && i < len(recs); i++ {
		same = sameRecord(recs[i], got[i])
	}
	if !same {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", recs, got)
	}
}

// TestRecordFramesRefuseDamage: a feed payload cut short or with any single
// bit flipped fails with ErrCorrupt, and its record never reaches apply.
func TestRecordFramesRefuseDamage(t *testing.T) {
	payload := AppendRecordFrame(nil, Record{LSN: 1, Kind: KindInsert, Table: "t",
		Rows: []value.Row{{value.NewInt(7), value.NewString("seven")}}})
	applied := 0
	apply := func(Record) error { applied++; return nil }
	check := func(what string, damaged []byte) {
		t.Helper()
		if err := ReadRecordFrames(damaged, apply); !errors.Is(err, ErrCorrupt) || applied != 0 {
			t.Fatalf("%s: err %v, %d records applied", what, err, applied)
		}
	}
	for cut := 1; cut < len(payload); cut++ {
		check(fmt.Sprintf("cut at %d/%d", cut, len(payload)), payload[:cut])
	}
	for bit := 0; bit < 8*len(payload); bit++ {
		damaged := append([]byte(nil), payload...)
		damaged[bit/8] ^= 1 << (bit % 8)
		check(fmt.Sprintf("bit %d flipped", bit), damaged)
	}
	// A frame whose payload holds more than one record is damage too.
	extra := AppendFrame(nil, append(AppendRecord(nil, Record{LSN: 1, Kind: KindAnalyze}), 0))
	check("trailing byte in the frame", extra)
	// The undamaged payload decodes to its one record.
	if err := ReadRecordFrames(payload, apply); err != nil || applied != 1 {
		t.Fatalf("undamaged payload: err %v, %d records applied", err, applied)
	}
}

// TestLogRetentionBytes: the byte budget trims wide-row records and never
// drops the newest record.
func TestLogRetentionBytes(t *testing.T) {
	l := NewChangeLog()
	l.SetRetentionBytes(64 << 10)
	wide := value.Row{value.NewString(string(make([]byte, 8<<10)))}
	for i := 0; i < 100; i++ {
		l.Append(Record{Kind: KindInsert, Table: "t", Rows: []value.Row{wide}})
	}
	recs, ok := l.Since(l.OldestLSN()-1, 0)
	if !ok {
		t.Fatal("retained tail unreadable")
	}
	// ~8KiB per record against a 64KiB budget: only a handful retained.
	if len(recs) == 0 || len(recs) > 10 {
		t.Fatalf("byte budget retained %d records", len(recs))
	}
	if recs[len(recs)-1].LSN != l.LastLSN() {
		t.Fatal("newest record was trimmed")
	}
	// One record larger than the whole budget still goes through.
	huge := value.Row{value.NewString(string(make([]byte, 128<<10)))}
	lsn := l.Append(Record{Kind: KindInsert, Table: "t", Rows: []value.Row{huge}})
	if recs, ok := l.Since(lsn-1, 0); !ok || len(recs) != 1 {
		t.Fatalf("oversized record not retained: %d, ok=%v", len(recs), ok)
	}
}

func TestRecordHash(t *testing.T) {
	a := Record{LSN: 7, Kind: KindInsert, Table: "t", Rows: []value.Row{{value.NewInt(1)}}}
	b := a
	b.Rows = []value.Row{{value.NewInt(2)}}
	if RecordHash(a) != RecordHash(a) {
		t.Fatal("hash not deterministic")
	}
	if RecordHash(a) == RecordHash(b) {
		t.Fatal("different records collide")
	}
}

// sameRecord reports whether two records carry the same change. The row
// images compare value by value (same kind, not Distinct) — values do not
// compare with == or reflect.DeepEqual, equal strings need not share a data
// pointer — and everything else as DeepEqual sees it.
func sameRecord(a, b Record) bool {
	sameRows := func(x, y []value.Row) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if len(x[i]) != len(y[i]) {
				return false
			}
			for j := range x[i] {
				if x[i][j].Kind() != y[i][j].Kind() || value.Distinct(x[i][j], y[i][j]) {
					return false
				}
			}
		}
		return true
	}
	if !sameRows(a.Rows, b.Rows) || !sameRows(a.OldRows, b.OldRows) {
		return false
	}
	a.Rows, a.OldRows, b.Rows, b.OldRows = nil, nil, nil, nil
	return reflect.DeepEqual(a, b)
}
