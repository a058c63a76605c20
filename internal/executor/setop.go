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
	algo       *setAlgo
	// scratch is the reusable row-key buffer (map lookups via string(scratch)
	// do not allocate), rec the reusable partition record.
	scratch, rec []byte
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
	rrows := 0
	if in[0] != nil {
		rrows = int(in[0].Records())
	}
	s.algo = newSetAlgo(s.op.Kind, rrows)
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

func (s *setOpIter) countRight(row value.Row) error {
	s.scratch = row.AppendKey(s.scratch[:0])
	return s.charge(s.algo.countRight(s.scratch), len(s.algo.rcount))
}

// charge accounts a partition fold's map entry (if the key was new) and
// restarts the partition one level deeper when its maps outgrow the budget.
// Re-partitioning needs the input on disk, so the fold over the level-0
// buffers — which fit the budget as rows — neither charges its maps nor
// overflows.
func (s *setOpIter) charge(newKey bool, resident int) error {
	if s.probe == nil {
		return nil
	}
	if newKey {
		s.acct.grow(int64(len(s.scratch)) + mapEntryBytes)
	}
	if s.d.overflow(&s.acct, resident, minFoldGroups) {
		s.algo = nil
		s.acct.releaseAll()
		return errRepartition
	}
	return nil
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
		s.algo = newSetAlgo(s.op.Kind, len(s.rbuf))
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
	s.algo = nil
	s.acct.releaseAll()
	return nil
}

func (s *setOpIter) offerLeft(seq uint64, row value.Row) error {
	s.scratch = row.AppendKey(s.scratch[:0])
	emit, newEmitted := s.algo.offerLeft(s.scratch)
	if newEmitted {
		// The DISTINCT variants' emitted-set grows with distinct LEFT keys,
		// which rcount (right keys) does not bound — EXCEPT DISTINCT over a
		// distinct-heavy left side would otherwise grow without limit.
		if err := s.charge(true, len(s.algo.emitted)); err != nil {
			return err
		}
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

// setAlgo is the kind-specific count-map arithmetic of INTERSECT/EXCEPT.
type setAlgo struct {
	kind    algebra.SetOpKind
	rcount  map[string]int
	emitted map[string]struct{} // DISTINCT variants only
}

func newSetAlgo(kind algebra.SetOpKind, rhint int) *setAlgo {
	a := &setAlgo{kind: kind, rcount: make(map[string]int, rhint)}
	if kind == algebra.IntersectDistinct || kind == algebra.ExceptDistinct {
		a.emitted = make(map[string]struct{})
	}
	return a
}

// countRight adds one right-side occurrence; it reports whether the key is
// new (for memory accounting).
func (a *setAlgo) countRight(key []byte) bool {
	n, ok := a.rcount[string(key)]
	a.rcount[string(key)] = n + 1
	return !ok
}

// offerLeft decides one left row in input order. newEmitted reports that the
// key was added to the DISTINCT variants' emitted-set (for memory
// accounting; the ALL variants never grow on the left side).
func (a *setAlgo) offerLeft(key []byte) (emit, newEmitted bool) {
	switch a.kind {
	case algebra.IntersectAll:
		// Emit each left row while the right still has a matching occurrence.
		if a.rcount[string(key)] > 0 {
			a.rcount[string(key)]--
			return true, false
		}
		return false, false
	case algebra.IntersectDistinct:
		if _, done := a.emitted[string(key)]; done {
			return false, false
		}
		if a.rcount[string(key)] > 0 {
			a.emitted[string(key)] = struct{}{}
			return true, true
		}
		return false, false
	case algebra.ExceptAll:
		if a.rcount[string(key)] > 0 {
			a.rcount[string(key)]--
			return false, false
		}
		return true, false
	case algebra.ExceptDistinct:
		if _, done := a.emitted[string(key)]; done {
			return false, false
		}
		a.emitted[string(key)] = struct{}{}
		return a.rcount[string(key)] == 0, true
	}
	return false, false
}

func (s *setOpIter) Next() (value.Row, error) { return s.d.Next() }

// release drops all set-operation state: buffers, accounting, spill files.
func (s *setOpIter) release() {
	s.lbuf, s.rbuf, s.probe, s.algo = nil, nil, nil, nil
	s.acct.releaseAll()
	s.d.release()
}

func (s *setOpIter) Close() error {
	s.release()
	return nil
}
