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
