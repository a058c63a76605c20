package executor

import "perm/internal/value"

// TableRows returns the rows of the named table the statement sees, drained
// from the cursor Scan opens: the stored rows themselves, not copies.
func (c *Context) TableRows(name string) ([]value.Row, error) {
	cur, err := c.Scan(name)
	if err != nil {
		return nil, err
	}
	var out []value.Row
	for r := cur.Next(); r != nil; r = cur.Next() {
		out = append(out, r)
	}
	return out, nil
}
