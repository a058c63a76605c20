package executor

import (
	"perm/internal/algebra"
	"perm/internal/spill"
	"perm/internal/value"
)

// setOpIter implements INTERSECT and EXCEPT in both bag (ALL) and set
// (DISTINCT) semantics. (UNION is a concatIter, under a distinctIter for
// UNION DISTINCT.) Both sides buffer under the session budget and the
// count-map fold runs over the buffers: count the right side's rows by key,
// then stream the left side through the counts in input order. Past the
// budget both sides hash-partition by row key into paired files instead, the
// grace driver runs the same fold over each pair (re-partitioning a pair that
// is itself over budget a level deeper), and the sequence-tagged outputs
// merge back into left input order — byte-identical to the in-memory path.
type setOpIter struct {
	op    *algebra.SetOp
	left  iterator
	right iterator
	d     graceDriver
	acct  memAcct
	// The fold's input: the level-0 buffers, or — folding a partition — the
	// right file through add and the left file, probe, in finish.
	lbuf, rbuf []value.Row
	probe      *spill.File
	// The fold's counts, under the entry numbers of the row keys: right-side
	// occurrences left and (DISTINCT variants) whether the key is decided.
	keys         keyTable
	count        []setCount
	scratch, rec []byte // reusable row key and partition record
}

func (s *setOpIter) Open(ctx *Context) error {
	s.release()
	s.d.start(ctx, s)
	s.acct.ctx = ctx
	if err := s.left.Open(ctx); err != nil {
		return err
	}
	defer s.left.Close()
	// Collect both sides, switching to paired hash partitions the moment the
	// buffered total crosses the budget. Left rows carry their input
	// sequence, the output-order tag; right rows are bag entries and need none.
	var lseq uint64
	if err := drainRows(ctx, s.left, func(row value.Row) error {
		lseq++
		if s.d.spilled() {
			return s.routeLeft(lseq-1, row)
		}
		s.lbuf = append(s.lbuf, row)
		return s.buffered(row)
	}); err != nil {
		return err
	}
	if err := s.right.Open(ctx); err != nil {
		return err
	}
	defer s.right.Close()
	if err := drainRows(ctx, s.right, func(row value.Row) error {
		if s.d.spilled() {
			return s.routeRight(row)
		}
		s.rbuf = append(s.rbuf, row)
		return s.buffered(row)
	}); err != nil {
		return err
	}
	return s.d.finish()
}

// buffered charges one buffered row and, over budget, moves both buffers to
// the level-0 partitions.
func (s *setOpIter) buffered(row value.Row) error {
	s.acct.grow(rowBytes(row))
	if !s.d.overflow(&s.acct, len(s.lbuf)+len(s.rbuf), minBufferRows) {
		return nil
	}
	for i, row := range s.lbuf {
		if err := s.routeLeft(uint64(i), row); err != nil {
			return err
		}
	}
	for _, row := range s.rbuf {
		if err := s.routeRight(row); err != nil {
			return err
		}
	}
	s.lbuf, s.rbuf = nil, nil
	s.acct.releaseAll()
	return nil
}

func (s *setOpIter) routeLeft(seq uint64, row value.Row) error {
	s.scratch = row.AppendKey(s.scratch[:0])
	s.rec = appendSeqRow(s.rec[:0], seq, row)
	return s.d.route(1, s.scratch, s.rec)
}

func (s *setOpIter) routeRight(row value.Row) error {
	s.scratch = row.AppendKey(s.scratch[:0])
	s.rec = spill.AppendRow(s.rec[:0], row)
	return s.d.route(0, s.scratch, s.rec)
}

// begin readies the fold for one partition pair: in[0] holds the right rows,
// in[1] the left. Without a left file no row can survive — the right side
// only ever subtracts.
func (s *setOpIter) begin(in [2]*spill.File) bool {
	if in[1] == nil {
		return false
	}
	s.dropCounts()
	s.probe = in[1]
	return true
}

// add counts one right-side record.
func (s *setOpIter) add(rec []byte) error {
	row, _, err := spill.DecodeRowIn(&s.d.alloc, rec)
	if err != nil {
		return err
	}
	return s.countRight(row)
}

type setCount struct {
	right   int
	decided bool
}

// slot returns the count of row's key, nil for a key the table does not hold;
// with add such a key is entered first, and isNew reports that.
func (s *setOpIter) slot(row value.Row, add bool) (c *setCount, isNew bool) {
	s.scratch = row.AppendKey(s.scratch[:0])
	i, isNew := s.keys.lookup(s.scratch, add)
	if i < 0 {
		return nil, false
	}
	if isNew {
		s.count = append(roomFor(s.count, 1), setCount{})
	}
	return &s.count[i], isNew
}

func (s *setOpIter) countRight(row value.Row) error {
	c, isNew := s.slot(row, true)
	c.right++
	return s.charge(isNew)
}

// charge accounts a partition fold's table entry (if the key was new) and
// restarts the partition one level deeper when its table outgrows the budget.
// Re-partitioning needs the input on disk, so the fold over the level-0
// buffers — which fit the budget as rows — neither charges its table nor
// overflows.
func (s *setOpIter) charge(newKey bool) error {
	if s.probe == nil || !newKey {
		return nil
	}
	s.acct.grow(int64(len(s.scratch)) + keyEntryBytes + setCountBytes)
	if s.d.overflow(&s.acct, len(s.count), minFoldGroups) {
		s.dropCounts()
		return errRepartition
	}
	return nil
}

func (s *setOpIter) dropCounts() {
	s.keys, s.count = keyTable{}, nil
	s.acct.releaseAll()
}

// finish streams the left side through the counts, emitting survivors in
// input order.
func (s *setOpIter) finish() error {
	if s.probe != nil {
		if err := s.d.scan(s.probe, func(rec []byte) error {
			seq, row, err := decodeSeqRow(&s.d.alloc, rec)
			if err != nil {
				return err
			}
			return s.offerLeft(seq, row)
		}); err != nil {
			return err
		}
	} else {
		for _, row := range s.rbuf {
			if err := s.countRight(row); err != nil {
				return err
			}
		}
		for i, row := range s.lbuf {
			if err := s.offerLeft(uint64(i), row); err != nil {
				return err
			}
		}
		s.lbuf, s.rbuf = nil, nil
	}
	s.dropCounts()
	return nil
}

// offerLeft decides one left row, in input order.
func (s *setOpIter) offerLeft(seq uint64, row value.Row) error {
	kind := s.op.Kind
	// EXCEPT DISTINCT enters every left key it decides, which the right side
	// does not bound: new keys are charged, or the table grows without limit.
	c, isNew := s.slot(row, kind == algebra.ExceptDistinct)
	if err := s.charge(isNew); err != nil {
		return err
	}
	emit := false
	switch kind {
	case algebra.IntersectAll, algebra.ExceptAll:
		// Each left row consumes one matching right occurrence while there is
		// one: INTERSECT emits those rows, EXCEPT the others.
		matched := c != nil && c.right > 0
		if matched {
			c.right--
		}
		emit = matched == (kind == algebra.IntersectAll)
	case algebra.IntersectDistinct:
		if emit = c != nil && !c.decided && c.right > 0; emit {
			c.decided = true
		}
	case algebra.ExceptDistinct:
		emit = !c.decided && c.right == 0
		c.decided = true
	}
	if !emit {
		return nil
	}
	return s.d.emit(seq, row)
}

// routeKey re-keys one record of a pair being re-partitioned.
func (s *setOpIter) routeKey(side int, rec []byte) ([]byte, error) {
	var row value.Row
	var err error
	if side == 1 {
		_, row, err = decodeSeqRow(&s.d.alloc, rec)
	} else {
		row, _, err = spill.DecodeRowIn(&s.d.alloc, rec)
	}
	s.scratch = row.AppendKey(s.scratch[:0])
	return s.scratch, err
}

func (s *setOpIter) Next() (value.Row, error) { return s.d.Next() }

// release drops all set-operation state: buffers, accounting, spill files.
func (s *setOpIter) release() {
	s.lbuf, s.rbuf, s.probe = nil, nil, nil
	s.dropCounts()
	s.d.release()
}

func (s *setOpIter) Close() error {
	s.release()
	return nil
}
