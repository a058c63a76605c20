package executor

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"perm/internal/spill"
	"perm/internal/value"
)

// This file is the spill path of the hash join: grace hash partitioning for
// build sides that exceed work_mem. Both inputs route to paired disk
// partitions by join-key hash, the grace driver joins each partition pair
// independently — with the probe step of the in-memory join, against a table
// holding the pair's build half — and the sequence-tagged outputs merge back
// into the exact order the in-memory probe loop would have produced:
//
//   - every output row is tagged probeSeq<<joinSeqShift|chunk, so the k-way
//     merge replays probes in input order with matches in build-insertion
//     order (chunks load in build order), exactly like the in-memory path;
//   - FULL/RIGHT tail rows are tagged (nProbe+buildOrdinal)<<joinSeqShift,
//     sorting the unmatched build rows after every probe output in
//     build-insertion order, again exactly like the in-memory tail.
//
// A partition whose build half is over budget re-partitions one level deeper
// while that can separate keys; a partition dominated by one hot key (which
// no amount of rehashing can split) instead joins in chunks: load a
// budget-sized slice of the build half, stream the whole probe file against
// it, repeat — the classic block hash join fallback, with a probe-matched
// bitmap carrying LEFT/FULL/ANTI/SEMI semantics across chunks.
//
// Rows whose strict-equality key evaluates to NULL can never match; they
// route by their empty key (one fixed partition per level) purely so
// LEFT probes still emit and FULL/RIGHT build rows still reach the tail.

// joinSeqShift widens the output sequence space so every (probe row, build
// chunk) pair gets a unique tag: chunk joins of the same probe row land in
// different files, and the merger's heap only orders distinct sequences.
// 20 bits allow ~1M chunks per partition (each at least minBufferRows rows)
// before tags saturate at joinChunkMask and ties become possible.
const joinSeqShift = 20
const joinChunkMask = (1 << joinSeqShift) - 1

// appendJoinRec encodes one partitioned join input record: the row's ordinal
// on its side (build ordinal or probe sequence), whether it is hashable, its
// key, then the exact row.
func appendJoinRec(dst []byte, ord uint64, hashable bool, key []byte, row value.Row) []byte {
	dst = binary.AppendUvarint(dst, ord)
	if hashable {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	return value.AppendRow(dst, row)
}

// decodeJoinRec reverses appendJoinRec. The returned key aliases rec and is
// only valid until the next file read.
func decodeJoinRec(a value.RowSource, rec []byte) (ord uint64, hashable bool, key []byte, row value.Row, err error) {
	ord, n := binary.Uvarint(rec)
	if n <= 0 || len(rec) < n+1 {
		return 0, false, nil, nil, fmt.Errorf("executor: corrupt join spill record (ordinal)")
	}
	hashable = rec[n] != 0
	rec = rec[n+1:]
	klen, n := binary.Uvarint(rec)
	if n <= 0 || uint64(len(rec)-n) < klen {
		return 0, false, nil, nil, fmt.Errorf("executor: corrupt join spill record (key)")
	}
	key = rec[n : n+int(klen)]
	row, _, err = value.DecodeRow(a, rec[n+int(klen):])
	return ord, hashable, key, row, err
}

// graceJoin is the hash join's state while the driver folds one partition
// pair: in[0] holds the build half, which add loads into the join's table,
// in[1] the probe half, which every chunk of the build half is joined against.
type graceJoin struct {
	nProbe uint64      // probe rows routed at level 0: where the tail's tags start
	probe  *spill.File // the pair's probe half
	ords   []uint64    // build ordinal of each table row, for the tail's tags
	chunk  uint64      // chunks of this pair joined so far
	full   bool        // the table holds a budget-sized chunk
	// multiKey: the first chunk shows more than one key, so rehashing can
	// separate them.
	multiKey bool
	// seen is the cross-chunk probe-matched bitmap, indexed by the probe
	// row's position in the pair's probe file (identical on every scan).
	// Only a multi-chunk pair allocates it.
	seen bitSet
	rec  []byte
}

// routeRow sends one input row (side 0 build, 1 probe) with its ordinal on
// that side to the level-0 partitions.
func (h *hashJoinIter) routeRow(side int, ord uint64, hashable bool, key []byte, row value.Row) error {
	if !hashable {
		key = nil
	}
	h.rec = appendJoinRec(h.rec[:0], ord, hashable, key, row)
	return h.d.route(side, key, h.rec)
}

// spillTable moves the buffered build prefix, keys already computed, to the
// level-0 partitions.
func (h *hashJoinIter) spillTable() error {
	for i := range h.rows {
		if err := h.routeRow(0, uint64(i), !h.table.dead(i), h.table.key(i), h.rows[i].row); err != nil {
			return err
		}
	}
	h.resetTable()
	return nil
}

// openGrace finishes the join on disk after the build side crossed the
// budget and went to the partitions: it routes the whole probe input the same
// way, each row tagged with its sequence, then has the driver join the pairs.
func (h *hashJoinIter) openGrace() error {
	if err := h.left.Open(h.ctx); err != nil {
		return err
	}
	for {
		if err := h.ctx.tick(); err != nil {
			return err
		}
		row, err := h.left.Next()
		if err != nil {
			return err
		}
		if row == nil {
			return h.d.finish()
		}
		key, hashable, err := h.keyOf(row, h.leftKey)
		if err != nil {
			return err
		}
		if err := h.routeRow(1, h.nProbe, hashable, key, row); err != nil {
			return err
		}
		h.nProbe++
	}
}

func (h *hashJoinIter) begin(in [2]*spill.File) bool {
	h.resetTable()
	h.seen.reset(h.ctx)
	h.probe, h.ords = in[1], h.ords[:0]
	h.chunk, h.full, h.multiKey = 0, false, false
	// Without build rows a pair matters only to a join kind that emits
	// unmatched probes.
	return in[0] != nil || h.p.keepsUnmatched()
}

// add loads one build record into the table. The table fills to a
// budget-sized chunk; a pair whose build half fits one chunk joins exactly
// like the in-memory path. When a record arrives to a full table the pair is
// over budget: it re-partitions a level deeper if its first chunk showed
// separable keys, and otherwise — dominated by one hot key no rehashing can
// split — block-joins chunk by chunk against repeated probe scans.
func (h *hashJoinIter) add(rec []byte) error {
	if h.full {
		if h.chunk == 0 && h.multiKey && h.d.level < maxSpillLevel {
			h.resetTable()
			return errRepartition
		}
		if err := h.joinChunk(false); err != nil {
			return err
		}
	}
	ord, hashable, key, row, err := decodeJoinRec(&h.d.alloc, rec)
	if err != nil {
		return err
	}
	h.addBuild(row, key, hashable)
	h.ords = append(h.ords, ord)
	if n := len(h.rows); n > 1 && !h.multiKey && !bytes.Equal(h.table.key(n-1), h.table.key(0)) {
		h.multiKey = true
	}
	h.full = h.acct.spillable() && h.acct.over() && len(h.rows) >= minBufferRows
	return nil
}

// resetTable empties the build side, keeping its storage for the next chunk
// or partition.
func (h *hashJoinIter) resetTable() {
	clear(h.rows)
	h.rows = h.rows[:0]
	h.table.reset()
	h.acct.releaseAll()
}

// finish joins the last (usually the only) chunk, which empties the table.
func (h *hashJoinIter) finish() error { return h.joinChunk(true) }

// routeKey re-keys one record of a pair being re-partitioned (the per-level
// hash salt sends what this level hashed together to different sub-pairs).
func (h *hashJoinIter) routeKey(_ int, rec []byte) ([]byte, error) {
	_, hashable, key, _, err := decodeJoinRec(h.d.recRow(), rec)
	if !hashable {
		key = nil
	}
	return key, err
}

// joinChunk streams the pair's probe half against the table, then emits the
// chunk's FULL/RIGHT tail and empties the table. last says no build row of
// the pair remains outside the table, so probes unmatched so far resolve.
func (h *hashJoinIter) joinChunk(last bool) error {
	// One output file per chunk: within a chunk, emission follows the probe
	// scan (ascending seq) then the tail (ascending past-the-probes tags), so
	// each file is ascending — the merger's invariant. A shared file would
	// interleave chunk rounds and break it.
	h.d.cut()
	multiChunk := h.chunk > 0 || !last
	// Chunk tags saturate at joinChunkMask: beyond ~1M chunks per partition
	// ordering among a probe's own matches could degrade, but each chunk holds
	// at least minBufferRows rows so that is unreachable for any input the row
	// budget admits.
	tag := h.chunk
	if tag > joinChunkMask {
		tag = joinChunkMask
	}
	// emit appends one output row, already in its final shape: projecting
	// before the record is encoded keeps the columns the projection above the
	// join drops out of the spilled outputs too. The driver encodes it at once,
	// so for the chunk the emitter fills one row, whatever the parent said.
	defer func(reuse bool) { h.out.rows.reuse = reuse }(h.out.rows.reuse)
	h.out.rows.reuse = true
	emit := func(seq uint64, l, r value.Row) error {
		return h.d.emit(seq, h.out.row(l, r))
	}
	var pos uint64
	err := h.d.scan(h.probe, func(rec []byte) error {
		pos++
		seq, hashable, key, probe, err := decodeJoinRec(h.d.recRow(), rec)
		if err != nil {
			return err
		}
		before := multiChunk && h.seen.get(pos-1) // matched in an earlier chunk
		h.startProbe(probe, key, hashable)
		for h.p.row != nil {
			l, r, ok, err := h.nextOutput(last && !before)
			if err != nil {
				return err
			}
			if ok {
				if err := emit(seq<<joinSeqShift|tag, l, r); err != nil {
					return err
				}
			}
		}
		if h.p.matched && multiChunk {
			h.seen.set(pos - 1)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if h.p.buildTail() {
		for i := range h.rows {
			if !h.rows[i].matched {
				if err := emit((h.nProbe+h.ords[i])<<joinSeqShift, nil, h.rows[i].row); err != nil {
					return err
				}
			}
		}
	}
	h.resetTable()
	h.ords = h.ords[:0]
	h.chunk++
	return nil
}

// bitSet is a growable bitmap whose words are charged to work_mem.
type bitSet struct {
	words []uint64
	acct  memAcct
}

// reset empties the set and gives its bytes back; ctx is the statement its
// next words are charged to.
func (b *bitSet) reset(ctx *Context) {
	b.acct.releaseAll()
	b.words, b.acct.ctx = b.words[:0], ctx
}

func (b *bitSet) set(i uint64) {
	w := i >> 6
	for uint64(len(b.words)) <= w {
		b.words = append(b.words, 0)
		b.acct.grow(8)
	}
	b.words[w] |= 1 << (i & 63)
}

func (b *bitSet) get(i uint64) bool {
	w := i >> 6
	return w < uint64(len(b.words)) && b.words[w]&(1<<(i&63)) != 0
}
