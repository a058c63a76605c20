package executor

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"

	"perm/internal/spill"
	"perm/internal/value"
)

// This file holds the spill machinery shared by the blocking operators:
// hash partitioning (grace-style, with per-level rehashing), sequence-tagged
// output files, and the driver that resolves partitions recursively and
// reassembles their output (through the merger, merge.go) in the exact order
// the in-memory path would have produced. Every operator's contract is: with
// or without spilling, byte-identical results in the same order — the
// differential suite runs the same queries under a huge and a tiny work_mem
// and asserts exactly that.

const (
	// spillPartitions is the grace fan-out per level.
	spillPartitions = 8
	// maxSpillLevel caps recursive re-partitioning; past it an operator
	// finishes in memory regardless of budget (correctness over bound — a
	// pathological key distribution must not recurse forever).
	maxSpillLevel = 8
	// minSortRunRows floors an external-sort run, so a tiny budget cannot
	// degenerate into one run per row (and a file per row).
	minSortRunRows = 256
	// minSortRunBytes floors an external-sort run in bytes: below it, the
	// per-run costs (a spill file with its write and read buffers, a slot in
	// every merge pass, a fresh decode of each row it carries) dominate the
	// row payload, and a tiny work_mem degenerates into allocation churn —
	// hundreds of near-empty runs plus reduction passes over all of them.
	// Runs are sized to the budget (half of work_mem, the sorting operator's
	// fair share of a tracker other operators draw on too) but never below
	// this floor; it is the one place the sort knowingly overshoots a
	// micro-budget, trading a bounded transient buffer for an order of
	// magnitude fewer spill files. See sortRunTargetBytes.
	minSortRunBytes = 128 << 10
	// mergeFanIn caps how many spill files a merge holds open at once;
	// larger sets merge in passes.
	mergeFanIn = 64
	// minFoldGroups floors the resident group/key set of a hash fold: each
	// fold makes at least this much progress before routing to partitions,
	// which bounds recursion depth and file count under absurd budgets.
	minFoldGroups = 64
	// minBufferRows floors the rows a buffering operator admits before it
	// considers partitioning.
	minBufferRows = 256
)

// sortRunTargetBytes is the byte size an external-sort run aims for before
// flushing: half the work_mem budget, floored at minSortRunBytes. The
// budget share keeps a spilling sort from buffering past its fair fraction
// of the (session-shared) tracker; the floor keeps micro-budgets from
// producing runs so small that file and merge-pass overhead dominates —
// the documented spill-path allocation churn at tiny budgets.
func sortRunTargetBytes(budget int64) int64 {
	t := budget / 2
	if t < minSortRunBytes {
		t = minSortRunBytes
	}
	return t
}

// spillHash hashes a canonical key with a level-dependent seed, so recursive
// re-partitioning redistributes what a parent level hashed together.
func spillHash(key []byte, level int) uint64 {
	h := uint64(1469598103934665603) ^ (uint64(level)+1)*1099511628211
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// fileReg tracks every spill file an operator currently owns, so Close can
// unconditionally release them however the query ends (file Close is
// idempotent; consumed files close twice harmlessly).
type fileReg struct {
	files []*spill.File
}

// create opens a fresh spill file in the session's pool and registers it.
func (r *fileReg) create(ctx *Context) (*spill.File, error) {
	f, err := ctx.Mem.Pool().Create()
	if err == nil {
		r.files = append(r.files, f)
	}
	return f, err
}

func (r *fileReg) closeAll() {
	for _, f := range r.files {
		f.Close()
	}
	r.files = nil
}

// partitionSet is one level of grace partitioning: records route to one of
// spillPartitions files by key hash, files created lazily.
type partitionSet [spillPartitions]*spill.File

// --- sequence-tagged output files ------------------------------------------------

// appendSeqRow encodes an output record: the row's original input sequence
// number, then the exact row.
func appendSeqRow(dst []byte, seq uint64, row value.Row) []byte {
	dst = binary.AppendUvarint(dst, seq)
	return spill.AppendRow(dst, row)
}

// decodeSeqRow reverses appendSeqRow.
func decodeSeqRow(a *value.RowAlloc, rec []byte) (uint64, value.Row, error) {
	seq, n := binary.Uvarint(rec)
	if n <= 0 {
		return 0, nil, fmt.Errorf("executor: corrupt spill record (sequence)")
	}
	row, _, err := spill.DecodeRowIn(a, rec[n:])
	return seq, row, err
}

// seqOrder is the merge order of sequence-tagged output files: ascending
// sequence, i.e. the order the unspilled operator would have emitted in.
var seqOrder = &mergeOrder{
	decode: func(a *value.RowAlloc, rec []byte, r *mergeRec) (err error) {
		r.seq, r.row, err = decodeSeqRow(a, rec)
		return err
	},
	encode: func(dst []byte, r *mergeRec) []byte { return appendSeqRow(dst, r.seq, r.row) },
	cmp:    func(a, b *mergeRec) int { return cmp.Compare(a.seq, b.seq) },
}

// --- the grace driver ------------------------------------------------------------

// graceFold is what a blocking operator supplies to the grace driver: how one
// partition folds. The operator's level-0 pass over its live input uses the
// same fold — it feeds it rows instead of records and ends with the driver's
// finish — so an operator whose input never overflowed has run nothing but
// the fold, and its output is the driver's resident rows.
type graceFold interface {
	// begin readies the fold for one partition, given the partition's file
	// per input (an input that routed nothing here has none). False skips the
	// partition: nothing in it can reach the output.
	begin(in [2]*spill.File) bool
	// add folds one record of in[0].
	add(rec []byte) error
	// finish runs after in[0]'s last record: the fold emits what it holds —
	// an operator with a second input scans in[1] here — and returns its
	// accounted memory.
	finish() error
}

// errRepartition, from a fold's add or finish, abandons the partition: the
// fold can only make progress on smaller pieces. The driver discards the
// partition's output so far and sends every record of its files one level
// deeper, keyed by the fold's routeKey; the files are intact, so nothing is
// lost or duplicated.
var errRepartition = errors.New("executor: partition over memory budget")

// repartitioner is the graceFold of an operator that returns errRepartition.
type repartitioner interface {
	// routeKey extracts the partitioning key from a record of in[side].
	routeKey(side int, rec []byte) ([]byte, error)
}

// graceDriver owns what every spilling hash operator needs around its fold:
// the partition sets records overflow into, reading a partition file back
// under the cancellation poll, the overflow test, the recursion one level
// deeper, the sequence-tagged output files (created on first use), and the
// merger that replays them in sequence order.
type graceDriver struct {
	ctx  *Context
	fold graceFold
	reg  fileReg
	// The partition being folded: its level, and the files records routed
	// from it land in, which resolve at level+1 once its fold has finished.
	level  int
	sub    [2]partitionSet
	routed bool
	// Output. While the level-0 fold has routed nothing, emitted rows stay
	// resident; from then on they go to out, the current output file.
	rows    []value.Row
	pos     int
	out     *spill.File
	outputs []*spill.File
	rec     []byte
	merger  *merger
	// alloc makes the rows the folds decode from partition records.
	alloc value.RowAlloc
}

// start readies the driver for an operator's Open: the level-0 pass.
func (d *graceDriver) start(ctx *Context, fold graceFold) {
	d.release()
	d.ctx, d.fold = ctx, fold
}

// overflow is the one spill decision: acct's operator holds resident entries,
// the session is over budget, the operator has made its floor of progress,
// and there is a level left to push the remainder down to. Past maxSpillLevel
// a fold finishes in memory regardless.
func (d *graceDriver) overflow(acct *memAcct, resident, floor int) bool {
	return acct.spillable() && acct.over() && resident >= floor && d.level < maxSpillLevel
}

// spilled reports whether the level-0 pass has routed anything to disk (once
// true it stays true until the next start).
func (d *graceDriver) spilled() bool { return d.routed || d.level > 0 }

// route appends rec to the partition of input side that key hashes into, one
// level below the partition being folded.
func (d *graceDriver) route(side int, key, rec []byte) error {
	d.routed = true
	idx := spillHash(key, d.level) % spillPartitions
	f := d.sub[side][idx]
	if f == nil {
		var err error
		if f, err = d.reg.create(d.ctx); err != nil {
			return err
		}
		d.sub[side][idx] = f
	}
	return f.Append(rec)
}

// emit hands the driver one output row, tagged with its place in the
// operator's unspilled output order. Within one output file tags must ascend
// (cut starts a new file). A spilled row is encoded at once, so the caller may
// reuse its storage; a resident row is retained.
func (d *graceDriver) emit(seq uint64, row value.Row) error {
	if !d.spilled() {
		d.rows = append(d.rows, row)
		return nil
	}
	if d.out == nil {
		f, err := d.reg.create(d.ctx)
		if err != nil {
			return err
		}
		d.out = f
		d.outputs = append(d.outputs, f)
	}
	d.rec = appendSeqRow(d.rec[:0], seq, row)
	return d.out.Append(d.rec)
}

// expect announces n rows about to be emitted, so resident output is sized
// once.
func (d *graceDriver) expect(n int) {
	if !d.spilled() {
		d.rows = make([]value.Row, 0, n)
	}
}

// cut makes the next emitted row start a new output file.
func (d *graceDriver) cut() { d.out = nil }

// scan reads f (nil reads as empty) from its start, handing each record to fn
// under the cancellation poll. rec is only valid during the call.
func (d *graceDriver) scan(f *spill.File, fn func(rec []byte) error) error {
	if f == nil {
		return nil
	}
	if err := f.StartRead(); err != nil {
		return err
	}
	for {
		if err := d.ctx.tick(); err != nil {
			return err
		}
		rec, err := f.Next()
		if err != nil || rec == nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// finish ends the level-0 pass: the fold emits what it still holds, and if
// anything was routed, every partition resolves — recursively — and the merger
// over their outputs is armed.
func (d *graceDriver) finish() error {
	if err := d.fold.finish(); err != nil {
		return err
	}
	if !d.routed {
		return nil
	}
	if err := d.descend(); err != nil {
		return err
	}
	m, err := newMerger(d.ctx, &d.reg, seqOrder, d.outputs)
	d.merger, d.outputs = m, nil
	return err
}

// descend resolves the partitions routed from the one just folded.
func (d *graceDriver) descend() error {
	sub, level := d.sub, d.level
	for i := range sub[0] {
		in := [2]*spill.File{sub[0][i], sub[1][i]}
		if in[0] == nil && in[1] == nil {
			continue
		}
		if err := d.resolve(in, level+1); err != nil {
			return err
		}
	}
	return nil
}

// resolve folds one partition and then whatever it routed deeper.
func (d *graceDriver) resolve(in [2]*spill.File, level int) error {
	d.level, d.sub, d.routed = level, [2]partitionSet{}, false
	d.cut()
	kept := len(d.outputs)
	var err error
	if d.fold.begin(in) {
		if err = d.scan(in[0], d.fold.add); err == nil {
			err = d.fold.finish()
		}
	}
	if err == errRepartition {
		err = d.repartition(in, kept)
	}
	if err != nil {
		return err
	}
	for _, f := range in {
		if f != nil {
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return d.descend()
}

// repartition answers errRepartition: it drops the outputs the abandoned fold
// wrote (those past kept) and routes every record of the partition's files one
// level down.
func (d *graceDriver) repartition(in [2]*spill.File, kept int) error {
	for _, f := range d.outputs[kept:] {
		f.Close()
	}
	d.outputs = d.outputs[:kept]
	keyOf := d.fold.(repartitioner).routeKey
	for side, f := range in {
		if err := d.scan(f, func(rec []byte) error {
			key, err := keyOf(side, rec)
			if err != nil {
				return err
			}
			return d.route(side, key, rec)
		}); err != nil {
			return err
		}
	}
	return nil
}

// Next returns the operator's next output row: the resident rows when nothing
// spilled, the merged outputs otherwise.
func (d *graceDriver) Next() (value.Row, error) {
	if d.merger != nil {
		return d.merger.Next()
	}
	if d.pos >= len(d.rows) {
		return nil, nil
	}
	row := d.rows[d.pos]
	d.pos++
	return row, nil
}

// release drops the output and every spill file; the fold's accounted memory
// is the operator's to return.
func (d *graceDriver) release() {
	d.merger.Close()
	d.reg.closeAll()
	*d = graceDriver{}
}
