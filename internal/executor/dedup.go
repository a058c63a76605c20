package executor

import (
	"fmt"

	"perm/internal/spill"
	"perm/internal/value"
)

// dedupState is the spillable first-occurrence filter behind DISTINCT and
// UNION DISTINCT. It streams while its seen-set fits the budget; once over,
// the resident keys are frozen to disk as tombstones, every further row
// routes to a grace partition, and the operator turns blocking for the
// remainder: the driver resolves the partitions with the same filter, each
// first occurrence tagged with its input sequence, and the final merge
// replays them in ascending sequence — exactly the order the pure streaming
// path would have produced after the already-emitted prefix.
//
// Partition record format: [0x00, key bytes] is a tombstone (key emitted or
// routed before the freeze — suppress, never emit), [0x01, uvarint seq, row]
// is a candidate row. Within any partition file every tombstone for a key
// precedes every routed row of that key, which is what makes per-partition
// resolution order-free.
type dedupState struct {
	d    graceDriver
	acct memAcct
	seen keyTable // sized at level 0 from slot
	slot *sizeSlot
	// frozen: the seen-set went to the partitions one level down as
	// tombstones, and every record of this level follows it there.
	frozen bool
	seq    uint64
	key    []byte // scratch: canonical row key
	rec    []byte // scratch: partition record
}

// start readies the filter for its owner's Open.
func (s *dedupState) start(ctx *Context) {
	s.release()
	s.d.start(ctx, s)
	s.acct.ctx = ctx
	s.seq = 0
	s.seen.mem = ctx.Mem
	s.begin([2]*spill.File{})
	if n, k := s.slot.size(ctx, keyEntryBytes); n > 0 {
		s.seen.presize(n, k)
	}
}

func (s *dedupState) begin([2]*spill.File) bool {
	s.acct.releaseAll()
	s.seen.reset()
	s.frozen = false
	return true
}

// offer decides one input row: emit=true means the caller streams it out now
// (first occurrence while under budget); false means it was a duplicate or
// was routed to a partition for the blocking phase.
func (s *dedupState) offer(row value.Row) (emit bool, err error) {
	s.key = row.AppendKey(s.key[:0])
	s.seq++
	return s.see(s.key, false, s.seq-1, row)
}

// add is offer for a partition record; first occurrences go to the driver's
// output.
func (s *dedupState) add(rec []byte) error {
	if len(rec) < 1 {
		return fmt.Errorf("executor: corrupt dedup spill record")
	}
	if rec[0] == 0x00 {
		_, err := s.see(rec[1:], true, 0, nil)
		return err
	}
	seq, row, err := decodeSeqRow(s.d.recRow(), rec[1:])
	if err != nil {
		return err
	}
	s.key = row.AppendKey(s.key[:0])
	first, err := s.see(s.key, false, seq, row)
	if first {
		return s.d.emit(seq, row)
	}
	return err
}

// see decides one key at the current level: a tombstone or the row with that
// key. first=true means the key is new here and now resident. When the
// resident set outgrows the budget it cascades, with everything after it, one
// level deeper — tombstones first, preserving the per-key invariant.
func (s *dedupState) see(key []byte, tomb bool, seq uint64, row value.Row) (first bool, err error) {
	if s.seen.find(key) >= 0 {
		return false, nil // already emitted, routed, or tombstoned
	}
	if !s.frozen && s.d.overflow(&s.acct, len(s.seen.entries), minFoldGroups) {
		if s.d.level == 0 {
			s.slot.record(len(s.seen.entries), len(s.seen.arena))
		}
		for i := 0; i < len(s.seen.entries); i++ {
			if err := s.routeTombstone(s.seen.key(i)); err != nil {
				return false, err
			}
		}
		// From here every record routes: empty the set, which then always misses.
		s.seen.reset()
		s.frozen = true
		s.acct.releaseAll()
	}
	if s.frozen {
		if tomb {
			return false, s.routeTombstone(key)
		}
		s.rec = appendSeqRow(append(s.rec[:0], 0x01), seq, row)
		return false, s.d.route(0, key, s.rec)
	}
	s.seen.insert(key)
	s.acct.grow(int64(len(key)) + keyEntryBytes)
	return !tomb, nil
}

func (s *dedupState) routeTombstone(key []byte) error {
	s.rec = append(append(s.rec[:0], 0x00), key...)
	return s.d.route(0, key, s.rec)
}

// finish empties the level's seen-set (its first occurrences are out).
func (s *dedupState) finish() error {
	if !s.d.spilled() {
		s.slot.record(len(s.seen.entries), len(s.seen.arena))
	}
	s.seen.reset()
	s.acct.releaseAll()
	return nil
}

// release drops all dedup state, accounting, and spill files.
func (s *dedupState) release() {
	s.seen.free()
	s.acct.releaseAll()
	s.d.release()
}
