package storage

import "perm/internal/value"

// SnapshotAt returns a copy of the rows of t visible at snapshot LSN snap
// (0 = now), in slot order.
func (t *Table) SnapshotAt(snap uint64) []value.Row {
	c := t.Scan(snap)
	return drain(&c)
}

// TableRows returns a copy of the rows of t as the transaction sees them.
func (x *Txn) TableRows(t *Table) []value.Row {
	c := x.Scan(t)
	return drain(&c)
}

func drain(c *Cursor) []value.Row {
	var out []value.Row
	for r := c.Next(); r != nil; r = c.Next() {
		out = append(out, r)
	}
	return out
}

// rewrite replaces each row of t that pred accepts (every row, for a nil
// pred) with fn's result, or deletes it when fn is nil, and reports how
// many: in x, or with a nil x in a one-statement transaction of its own. It
// picks rows as the executor's UPDATE and DELETE do, by the position the
// transaction's cursor read them at, and resolves the picks in that cursor.
func rewrite(x *Txn, t *Table, pred func(value.Row) (bool, error), fn func(value.Row) (value.Row, error)) (int, error) {
	return t.Write(x, func(x *Txn) (int, error) {
		var picks []Pick
		c := x.Scan(t)
		for row := c.Next(); row != nil; row = c.Next() {
			if pred != nil {
				if ok, err := pred(row); err != nil || !ok {
					if err != nil {
						return 0, err
					}
					continue
				}
			}
			p := Pick{ID: c.Pos()}
			if fn != nil {
				var err error
				if p.Row, err = fn(row); err != nil {
					return 0, err
				}
			}
			picks = append(picks, p)
		}
		return x.Rewrite(t, &c, picks)
	})
}
