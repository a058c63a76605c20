package value

// Chunk sizes of a RowAlloc, in rows. The first chunk is two rows, so an
// operator that produces one row pays for two rows of the new, smaller Value
// — less than the one 40-byte-per-value row it used to allocate — and the
// doubling reaches the cap after seven chunks, by which point the operator
// has shown it produces rows in bulk.
//
// A chunk never exceeds maxChunkValues values (64 KiB) unless a single row
// does: rows wider than 32 columns get fewer per chunk, and a corrupt or
// hostile arity read off a wire frame or a spill record allocates one row of
// that width, as it did before, not 128.
const (
	firstChunkRows = 2
	maxChunkRows   = 128
	maxChunkValues = 4096
)

// RowAlloc hands out rows cut from shared chunks instead of allocating each
// one: the row allocator of every operator that gives birth to rows. Chunks
// grow 2 → 4 → … → 128 rows of the width being asked for. The zero RowAlloc
// is ready to use, and a nil *RowAlloc allocates every row on its own; it is
// not safe for concurrent use (every operator, and every worker's copy of
// it, owns its own).
//
// A row it returns is full-capacity (append never reaches a neighbour), is
// all NULL, and stays valid for as long as anyone holds it — the allocator
// never reuses memory; an operator whose consumer drops every row takes none
// from it and refills one row of its own (the executor's rowMaker). What the
// allocator trades away is granularity: one retained row keeps its whole chunk
// reachable, so a consumer that keeps one row in a hundred pins more than it
// accounts for (at most maxChunkRows rows per row kept).
type RowAlloc struct {
	free []Value // the unused tail of the current chunk
	rows int     // rows in the current chunk, before the maxChunkValues cap
}

// New returns a row of n NULLs.
func (a *RowAlloc) New(n int) Row {
	if a == nil || n == 0 {
		return make(Row, n) // never nil: a nil row is end-of-stream to the iterators
	}
	if n > len(a.free) {
		switch {
		case a.rows == 0:
			a.rows = firstChunkRows
		case a.rows < maxChunkRows:
			a.rows *= 2
		}
		a.free = make([]Value, n*max(1, min(a.rows, maxChunkValues/n)))
	}
	row := a.free[:n:n]
	a.free = a.free[n:]
	return row
}
