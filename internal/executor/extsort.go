package executor

import (
	"perm/internal/algebra"
	"perm/internal/spill"
	"perm/internal/value"
)

// External merge sort: when the sort buffer crosses the session budget, the
// buffered rows are stable-sorted and written out as one sorted run (records
// carry the precomputed key row, so the merge never re-evaluates key
// expressions), and the k-way merge replays the runs on Next.
//
// Stability contract: the in-memory path is sort.SliceStable over input
// order, and the external path must match it byte for byte. Runs are
// contiguous input ranges created in input order, each internally stable, so
// the merge breaks key ties by run index (the merger's input position) — rows
// with equal keys surface in input order across run boundaries.
// TestSpillSortStability pins this.

// runRecord encodes one sort record: the key row, then the payload row.
func runRecord(dst []byte, keys, row value.Row) []byte {
	dst = spill.AppendRow(dst, keys)
	return spill.AppendRow(dst, row)
}

// decodeRunRecord reverses runRecord.
func decodeRunRecord(a *value.RowAlloc, rec []byte) (keys, row value.Row, err error) {
	keys, rest, err := spill.DecodeRowIn(a, rec)
	if err != nil {
		return nil, nil, err
	}
	row, _, err = spill.DecodeRowIn(a, rest)
	return keys, row, err
}

// sortKeyCompare compares two key rows under the ORDER BY direction flags,
// returning -1/0/+1.
func sortKeyCompare(sortKeys []algebra.SortKey, a, b value.Row) int {
	for k := range sortKeys {
		c := value.CompareTotal(a[k], b[k])
		if c == 0 {
			continue
		}
		if sortKeys[k].Desc {
			return -c
		}
		return c
	}
	return 0
}

// runOrder is the merge order of sorted runs: by key row under the ORDER BY
// direction flags. Ties fall to the merger's input position, i.e. run
// creation order.
func runOrder(sortKeys []algebra.SortKey) *mergeOrder {
	return &mergeOrder{
		decode: func(a *value.RowAlloc, rec []byte, r *mergeRec) (err error) {
			r.keys, r.row, err = decodeRunRecord(a, rec)
			return err
		},
		encode: func(dst []byte, r *mergeRec) []byte { return runRecord(dst, r.keys, r.row) },
		cmp:    func(a, b *mergeRec) int { return sortKeyCompare(sortKeys, a.keys, b.keys) },
	}
}
