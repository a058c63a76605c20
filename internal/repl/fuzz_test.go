package repl

import (
	"bytes"
	"errors"
	"testing"

	"perm/internal/catalog"
	"perm/internal/value"
	"perm/internal/wire"
)

// FuzzWALRecord feeds arbitrary bytes through the record decoder — the
// exact payload bytes a WAL segment frame or a replication change frame
// carries. The decoder's contract on untrusted input: never panic, never
// allocate past the input's size class, fail only with ErrCorrupt, and
// round-trip every accepted record (re-encode, re-decode, identical —
// non-canonical varints may differ in bytes, never in meaning).
func FuzzWALRecord(f *testing.F) {
	// Seeds are real segment payloads: AppendRecord's encoding is, byte for
	// byte, what internal/wal frames on disk and the follower receives in
	// MsgChanges.
	row := value.Row{value.NewInt(42), value.NewString("x"), value.Null, value.NewFloat(2.5), value.NewBool(true)}
	seeds := []Record{
		{LSN: 1, Kind: KindCreateTable, Table: "kv", Columns: []catalog.Column{
			{Name: "k", Type: value.KindInt, NotNull: true},
			{Name: "v", Type: value.KindString},
		}},
		{LSN: 2, Kind: KindInsert, Table: "kv", Rows: []value.Row{row, row}},
		{LSN: 3, Kind: KindUpdate, Table: "kv", Rows: []value.Row{row}, OldRows: []value.Row{row}},
		{LSN: 4, Kind: KindDelete, Table: "kv", Rows: []value.Row{row}},
		{LSN: 5, Kind: KindCreateView, Table: "vv", ViewText: "SELECT k FROM kv", Columns: []catalog.Column{{Name: "k", Type: value.KindInt}}},
		{LSN: 6, Kind: KindDropView, Table: "vv"},
		{LSN: 7, Kind: KindDropTable, Table: "kv"},
		{LSN: 8, Kind: KindAnalyze},
	}
	for _, rec := range seeds {
		f.Add(AppendRecord(nil, rec))
	}
	f.Add(AppendBatch(nil, seeds))
	// Corruption seeds: truncated tails, hostile counts, garbage.
	enc := AppendRecord(nil, seeds[1])
	f.Add(enc[:len(enc)/2])
	f.Add([]byte{0x01, 0xFF})                               // unknown kind
	f.Add([]byte{0x01, 0x01, 0x00, 0xFF, 0xFF, 0xFF, 0x0F}) // huge row count
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := ReadRecord(wire.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error not wrapping ErrCorrupt: %v", err)
			}
		} else {
			re := AppendRecord(nil, rec)
			rec2, err2 := ReadRecord(wire.NewReader(re))
			if err2 != nil {
				t.Fatalf("re-decode of re-encoded record failed: %v", err2)
			}
			if !sameRecord(rec, rec2) {
				t.Fatalf("round-trip mismatch:\n  first  %+v\n  second %+v", rec, rec2)
			}
			re2 := AppendRecord(nil, rec2)
			if !bytes.Equal(re, re2) {
				t.Fatalf("re-encoding unstable")
			}
		}
		// The batch decoder shares the record decoder; it must hold the same
		// contract on the same bytes.
		if recs, berr := DecodeBatch(data); berr != nil {
			if !errors.Is(berr, ErrCorrupt) {
				t.Fatalf("batch decode error not wrapping ErrCorrupt: %v", berr)
			}
		} else {
			for _, r := range recs {
				enc := AppendRecord(nil, r)
				if _, err := ReadRecord(wire.NewReader(enc)); err != nil {
					t.Fatalf("batch record does not re-decode: %v", err)
				}
			}
		}
	})
}
