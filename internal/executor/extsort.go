package executor

import (
	"perm/internal/algebra"
	"perm/internal/value"
)

// External merge sort: when the sort buffer crosses the session budget, the
// buffered rows are sorted and written out as one sorted run, and the k-way
// merge replays the runs on Next. A sort key that is a plain column is read
// from the row; the values of computed keys ride behind the row's own columns,
// in the buffer and in the run records, so no key expression runs twice.
//
// Stability contract: equal keys surface in input order, in memory and across
// runs alike. In memory the sort is over the total order (keys, input
// sequence), which has no ties and so needs no stable algorithm. Runs are
// contiguous input ranges created in input order, each sorted that way, so the
// merge breaks key ties by run index (the merger's input position).
// TestSpillSortStability and TestSortMatchesStableReference pin this.

// sortOrder is an ORDER BY list as the sort reads it off its rows: an input row
// of width columns, extended by the values of the computed keys.
type sortOrder struct {
	keys     []algebra.SortKey
	src      []int // key k is column src[k] of the extended row
	width    int
	computed []compiledExpr // the keys that are not plain columns
}

func newSortOrder(keys []algebra.SortKey, width int) *sortOrder {
	o := &sortOrder{keys: keys, src: make([]int, len(keys)), width: width}
	for k, key := range keys {
		if c, ok := key.Expr.(*algebra.ColIdx); ok {
			o.src[k] = c.Idx
			continue
		}
		o.src[k] = width + len(o.computed)
		o.computed = append(o.computed, Compile(key.Expr))
	}
	return o
}

func (o *sortOrder) compare(a, b value.Row) int {
	for k, src := range o.src {
		c := value.CompareTotal(a[src], b[src])
		if c == 0 {
			continue
		}
		if o.keys[k].Desc {
			return -c
		}
		return c
	}
	return 0
}

// runOrder is the merge order of sorted runs, whose records are extended
// rows. Ties fall to the merger's input position, i.e. run creation order.
func (o *sortOrder) runOrder() *mergeOrder {
	return &mergeOrder{
		decode: func(a value.RowSource, rec []byte, r *mergeRec) (err error) {
			r.keys, _, err = value.DecodeRow(a, rec)
			if err == nil {
				r.row = r.keys[:o.width:o.width]
			}
			return err
		},
		encode: func(dst []byte, r *mergeRec) []byte { return value.AppendRow(dst, r.keys) },
		cmp:    func(a, b *mergeRec) int { return o.compare(a.keys, b.keys) },
	}
}
