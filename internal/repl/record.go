// Package repl implements logical replication for Perm: a monotonic change
// log of committed mutations (row images for DML, definitions for DDL) that a
// primary appends to and followers replay. Provenance queries are rewritten
// read queries — SQL-PLE never mutates data — so replicas built from this
// feed answer SELECT PROVENANCE byte-identically to the primary once caught
// up, which is what makes read scale-out the natural scaling axis for the
// workload.
//
// The package deliberately knows nothing about storage or the network: the
// storage engine appends Records inside its own write-gate critical sections
// (see internal/storage), and internal/server streams encoded records over
// the wire protocol. Both directions share the binary codec defined here.
//
// # LSNs
//
// Every record carries a log sequence number. LSNs are assigned densely and
// monotonically (1, 2, 3, …) on the primary; a replica replays records at
// their primary LSNs, so the LSN space is global across a replication tree
// and "applied LSN" is directly comparable between any two nodes. LSN 0 is
// never assigned — it is the position of an empty database and the sentinel
// for "assign the next LSN" in Record.LSN.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"perm/internal/catalog"
	"perm/internal/value"
	"perm/internal/wire"
)

// ErrCorrupt is wrapped by every decode error in this package: a record or
// frame that cannot be decoded from untrusted bytes (a replication peer, a
// WAL segment off disk). The decoder's contract is to return this — never
// to panic and never to over-allocate — whatever the input; the WAL's
// recovery turns it into a truncation point, the follower into a resync.
var ErrCorrupt = errors.New("repl: corrupt record")

// Kind enumerates the logical change types.
type Kind uint8

const (
	// KindInsert appends Rows to Table.
	KindInsert Kind = iota + 1
	// KindDelete removes the row images in Rows from Table (multiset match
	// in table order).
	KindDelete
	// KindUpdate replaces the row images in OldRows with the parallel images
	// in Rows (multiset match in table order).
	KindUpdate
	// KindCreateTable creates Table with Columns.
	KindCreateTable
	// KindDropTable drops Table.
	KindDropTable
	// KindCreateView creates view Table defined by ViewText with Columns.
	KindCreateView
	// KindDropView drops view Table.
	KindDropView
	// KindAnalyze refreshes statistics for Table (all tables when empty).
	KindAnalyze
)

func (k Kind) String() string {
	switch k {
	case KindInsert:
		return "INSERT"
	case KindDelete:
		return "DELETE"
	case KindUpdate:
		return "UPDATE"
	case KindCreateTable:
		return "CREATE TABLE"
	case KindDropTable:
		return "DROP TABLE"
	case KindCreateView:
		return "CREATE VIEW"
	case KindDropView:
		return "DROP VIEW"
	case KindAnalyze:
		return "ANALYZE"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Record is one committed logical change. Only the fields relevant to Kind
// are populated (see the Kind constants). Rows alias the storage engine's
// immutable row values; a Record, once appended, must be treated as
// read-only by every consumer.
type Record struct {
	// LSN is the record's position in the change log. Zero means "not yet
	// assigned": the log assigns the next LSN on append. A replica replaying
	// a primary's feed appends at the primary's LSN instead.
	LSN  uint64
	Kind Kind
	// Table is the target relation (table or view name; the ANALYZE target,
	// empty for ANALYZE of all tables).
	Table string
	// Rows holds inserted rows (KindInsert), removed row images (KindDelete)
	// or new row images (KindUpdate, parallel to OldRows).
	Rows []value.Row
	// OldRows holds the pre-update row images (KindUpdate only).
	OldRows []value.Row
	// Columns is the relation schema (KindCreateTable, KindCreateView).
	Columns []catalog.Column
	// ViewText is the defining SQL of a view (KindCreateView).
	ViewText string
}

// --- binary codec ---------------------------------------------------------------
//
// Records travel in frames (frame.go) — WAL segments, storage snapshots and
// the replication feed — and reuse the wire payload primitives (varints, length-prefixed
// strings); rows are internal/value's row codec (value.AppendRow, through
// wire.AppendRow), the one encoding of a value the codebase has.

// AppendRecord appends the binary encoding of r to dst.
func AppendRecord(dst []byte, r Record) []byte {
	dst = binary.AppendUvarint(dst, r.LSN)
	dst = append(dst, byte(r.Kind))
	dst = wire.AppendString(dst, r.Table)
	dst = appendRowSet(dst, r.Rows)
	dst = appendRowSet(dst, r.OldRows)
	dst = binary.AppendUvarint(dst, uint64(len(r.Columns)))
	for _, c := range r.Columns {
		dst = wire.AppendString(dst, c.Name)
		dst = append(dst, byte(c.Type))
		dst = wire.AppendBool(dst, c.NotNull)
	}
	dst = wire.AppendString(dst, r.ViewText)
	return dst
}

func appendRowSet(dst []byte, rows []value.Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, row := range rows {
		dst = wire.AppendRow(dst, row)
	}
	return dst
}

// ReadRecord decodes one record from r. Every failure wraps ErrCorrupt.
func ReadRecord(r *wire.Reader) (Record, error) {
	var rec Record
	rec.LSN = r.Uvarint()
	rec.Kind = Kind(r.Byte())
	if err := r.Err(); err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if rec.Kind < KindInsert || rec.Kind > KindAnalyze {
		return Record{}, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, uint8(rec.Kind))
	}
	rec.Table = r.String()
	rec.Rows = readRowSet(r)
	rec.OldRows = readRowSet(r)
	ncols := r.Uvarint()
	// Each column costs at least 3 payload bytes; reject impossible counts
	// before allocating.
	if err := r.Err(); err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if ncols > uint64(r.Remaining())/3 {
		return Record{}, fmt.Errorf("%w: impossible column count %d", ErrCorrupt, ncols)
	}
	if ncols > 0 {
		rec.Columns = make([]catalog.Column, ncols)
		for i := range rec.Columns {
			rec.Columns[i].Name = r.String()
			rec.Columns[i].Type = value.Kind(r.Byte())
			rec.Columns[i].NotNull = r.Bool()
		}
	}
	rec.ViewText = r.String()
	if err := r.Err(); err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return rec, nil
}

func readRowSet(r *wire.Reader) []value.Row {
	n := r.Uvarint()
	if r.Err() != nil || n == 0 {
		return nil
	}
	// A row costs at least one payload byte (its arity varint). An
	// impossible count must fail the whole payload — silently returning nil
	// would let the decoder continue misaligned and produce a structurally
	// valid but wrong record.
	if n > uint64(r.Remaining()) {
		r.Fail("row set count")
		return nil
	}
	rows := make([]value.Row, 0, n)
	for i := uint64(0); i < n; i++ {
		rows = append(rows, r.Row())
	}
	return rows
}

// RecordHash fingerprints a record's full encoding (FNV-64a). A resuming
// follower sends the hash of the last record it applied; the primary
// compares it against its own record at that LSN, which catches a
// same-origin timeline fork — a primary restarted from an older snapshot
// that re-used LSNs for different changes — that origin and LSN checks
// alone cannot see. The check protects replicas that have applied at least
// one streamed record since their last bootstrap or snapshot-file restart;
// a replica whose local log tail is empty (fresh bootstrap, -open restart)
// sends no hash and resumes on the LSN/origin checks alone.
func RecordHash(rec Record) uint64 {
	h := fnv.New64a()
	h.Write(AppendRecord(nil, rec))
	return h.Sum64()
}
