package executor

import (
	"perm/internal/algebra"
	"perm/internal/value"
)

// Stream is the executor's pull-based result surface: the iterator tree of a
// plan, opened and ready to produce rows one at a time. It is what lets the
// layers above (engine sessions, the network server's cursors) forward rows
// as they are produced instead of materializing whole results — the
// provenance rewrites of the paper routinely multiply result width and
// cardinality, so "hold the whole answer in memory" is exactly the wrong
// contract for them.
//
// A Stream is single-goroutine, like the iterators beneath it. Interrupt and
// deadline polling run inside Next with the same cadence the materializing
// loops used (one channel select / clock read every interruptMask+1 rows),
// so a canceled query unwinds mid-stream. Close releases the operator tree
// and is idempotent; an exhausted or failed stream closes itself.
type Stream struct {
	it     iterator
	ctx    *Context
	schema algebra.Schema
	n      int
	closed bool
	err    error
}

// Context returns the executor context the stream runs under. Callers use it
// after the drain to read coordinator-side counters (subplan cache hits,
// parallel fan-outs); it is not safe to mutate while rows are flowing.
func (s *Stream) Context() *Context { return s.ctx }

// Open builds the iterator tree for plan and opens it under ctx, returning
// the live stream. The schema (and thus result columns) is available
// immediately; rows follow on demand.
func Open(ctx *Context, plan algebra.Op) (*Stream, error) {
	return open(ctx, plan, nil)
}

// OpenInstrumented is Open with per-operator counters: every concrete
// iterator is wrapped with a stats collector, and the returned root node
// mirrors the iterator tree. The numbers are live while the stream drains
// and final once it is closed or exhausted. Used by EXPLAIN ANALYZE and
// SET trace; everything else takes the unwrapped Open path.
func OpenInstrumented(ctx *Context, plan algebra.Op) (*Stream, *OpStats, error) {
	sentinel := &OpStats{}
	s, err := open(ctx, plan, sentinel)
	if err != nil {
		return nil, nil, err
	}
	return s, sentinel.Children[0], nil
}

// open builds plan under the stats parent (nil = uninstrumented). A statement
// with a parallelism degree lets the builder graft gathers wherever a subtree
// is eligible; results are identical either way.
func open(ctx *Context, plan algebra.Op, parent *OpStats) (*Stream, error) {
	it, err := builder{graft: ctx.Parallel > 1}.build(plan, parent)
	if err != nil {
		return nil, err
	}
	if err := it.Open(ctx); err != nil {
		it.Close()
		return nil, err
	}
	return &Stream{it: it, ctx: ctx, schema: plan.Schema()}, nil
}

// Schema describes the stream's columns.
func (s *Stream) Schema() algebra.Schema { return s.schema }

// Rows reports how many rows the stream has produced so far; once Next has
// returned (nil, nil) it is the result's cardinality — the drain-time row
// count command tags are built from.
func (s *Stream) Rows() int { return s.n }

// Next returns the next row, or (nil, nil) at end of stream. The first error
// (including an interrupt or deadline unwind) is sticky and closes the
// underlying operators; rows alias executor-owned memory and must be treated
// as immutable, but remain valid after further Next calls (builder.reuse is
// never set for a statement's root).
func (s *Stream) Next() (value.Row, error) {
	if s.err != nil || s.closed {
		return nil, s.err
	}
	row, err := s.it.Next()
	if err != nil {
		s.fail(err)
		return nil, err
	}
	if row == nil {
		s.Close()
		return nil, nil
	}
	s.n++
	if s.n&interruptMask == 0 {
		if err := s.ctx.interrupted(); err != nil {
			s.fail(err)
			return nil, err
		}
	}
	return row, nil
}

// fail closes the stream, recording err as its sticky error.
func (s *Stream) fail(err error) {
	if !s.closed {
		s.closed = true
		s.it.Close()
	}
	if s.err == nil {
		s.err = err
	}
}

// Close releases the operator tree. It is safe to call at any point — a
// client abandoning a half-read cursor closes it mid-stream — and more than
// once.
func (s *Stream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.it.Close()
}

// Drain materializes the rest of the stream, enforcing the context's row
// budget exactly as the materializing Run always has. Execute-style callers
// use it to keep their fully-buffered semantics on top of the streaming
// surface.
func (s *Stream) Drain() ([]value.Row, error) {
	var rows []value.Row
	if err := drainRows(s.ctx, s, func(row value.Row) error {
		rows = append(roomFor(rows, 1), row)
		return nil
	}); err != nil {
		s.Close()
		return nil, err
	}
	return rows, nil
}
