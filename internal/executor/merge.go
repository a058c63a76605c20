package executor

import (
	"container/heap"

	"perm/internal/spill"
	"perm/internal/value"
)

// One k-way merge reassembles everything the blocking operators spill: the
// sorted runs of an external sort, the sequence-tagged output files of the
// grace driver, and the sorted element runs of a spilled COUNT(DISTINCT).
// The three differ only in their record format and in the order their files
// are written in, which is what a mergeOrder describes; the cursor, the heap,
// the step past the minimum and the fan-in reduction exist once, here.

// mergeRec is the decoded head record of one merge input. Which fields a
// record format fills is its mergeOrder's business.
type mergeRec struct {
	seq  uint64      // sequence-tagged output: the row's place in the unspilled operator's output
	keys value.Row   // sort run: the payload row extended by its computed ORDER BY keys
	key  []byte      // DISTINCT run: the canonical element key, in a buffer the cursor reuses
	val  value.Value // DISTINCT run: the element
	row  value.Row   // sequence-tagged output and sort run: the payload row
}

// mergeOrder is a spill record format and the order its files hold it in.
// Records that compare equal surface in input-file order, which is what
// keeps an external sort stable: its runs are contiguous input ranges written
// in input order.
type mergeOrder struct {
	// decode fills into from rec, taking row memory from a.
	decode func(a *value.RowAlloc, rec []byte, into *mergeRec) error
	encode func(dst []byte, r *mergeRec) []byte // reverses decode, for reduction passes
	cmp    func(a, b *mergeRec) int
	// collapse makes records that compare equal surface once (one DISTINCT
	// element sits in many runs).
	collapse bool
}

// mergeCursor is one input file primed with its next record.
type mergeCursor struct {
	f   *spill.File
	idx int // position among the inputs: the tie-break
	rec mergeRec
}

// mergeHeap orders cursors by (record, input position).
type mergeHeap struct {
	ord *mergeOrder
	cs  []*mergeCursor
}

func (h *mergeHeap) Len() int { return len(h.cs) }
func (h *mergeHeap) Less(i, j int) bool {
	if c := h.ord.cmp(&h.cs[i].rec, &h.cs[j].rec); c != 0 {
		return c < 0
	}
	return h.cs[i].idx < h.cs[j].idx
}
func (h *mergeHeap) Swap(i, j int) { h.cs[i], h.cs[j] = h.cs[j], h.cs[i] }
func (h *mergeHeap) Push(x any)    { h.cs = append(h.cs, x.(*mergeCursor)) }
func (h *mergeHeap) Pop() any {
	n := len(h.cs)
	x := h.cs[n-1]
	h.cs = h.cs[:n-1]
	return x
}

// merger streams the k-way merge of files written in one mergeOrder, holding
// one record per file.
type merger struct {
	h mergeHeap
	// last is the record a collapsing merge is stepping past; it trades
	// buffers with the head cursor so neither allocates per record.
	last mergeRec
	// alloc makes the rows of the records it decodes.
	alloc value.RowAlloc
}

// newMerger merges files, each fully written in ord's order. It never holds
// more than mergeFanIn files open: a larger set is first reduced in passes
// that merge the leading mergeFanIn files into one replacement file, which
// takes their place at the front — so the positional tie-break still means
// input order after any number of passes.
func newMerger(ctx *Context, reg *fileReg, ord *mergeOrder, files []*spill.File) (*merger, error) {
	for len(files) > mergeFanIn {
		out, err := reg.create(ctx)
		if err != nil {
			return nil, err
		}
		m, err := openMerger(ord, files[:mergeFanIn])
		if err != nil {
			return nil, err
		}
		var rec []byte
		for r := m.head(); r != nil; r = m.head() {
			// A reduction pass over a large spill must stay interruptible.
			if err := ctx.tick(); err != nil {
				return nil, err
			}
			rec = ord.encode(rec[:0], r)
			if err := out.Append(rec); err != nil {
				return nil, err
			}
			if err := m.step(); err != nil {
				return nil, err
			}
		}
		files = append([]*spill.File{out}, files[mergeFanIn:]...)
	}
	return openMerger(ord, files)
}

// openMerger rewinds files for reading and primes the heap.
func openMerger(ord *mergeOrder, files []*spill.File) (*merger, error) {
	m := &merger{h: mergeHeap{ord: ord, cs: make([]*mergeCursor, 0, len(files))}}
	for i, f := range files {
		if err := f.StartRead(); err != nil {
			return nil, err
		}
		c := &mergeCursor{f: f, idx: i}
		more, err := m.load(c)
		if err != nil {
			return nil, err
		}
		if more {
			m.h.cs = append(m.h.cs, c)
		}
	}
	heap.Init(&m.h)
	return m, nil
}

// load decodes c's next record; at end of file it closes the file (which
// removes it) and reports more=false.
func (m *merger) load(c *mergeCursor) (more bool, err error) {
	rec, err := c.f.Next()
	if err != nil {
		return false, err
	}
	if rec == nil {
		return false, c.f.Close()
	}
	return true, m.h.ord.decode(&m.alloc, rec, &c.rec)
}

// advance moves the head cursor to its next record and restores the heap.
func (m *merger) advance() error {
	more, err := m.load(m.h.cs[0])
	if err != nil {
		return err
	}
	if more {
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
	return nil
}

// head is the current minimum, nil once every file is exhausted.
func (m *merger) head() *mergeRec {
	if m == nil || len(m.h.cs) == 0 {
		return nil
	}
	return &m.h.cs[0].rec
}

// step moves past the head record — and, collapsing, past every record equal
// to it.
func (m *merger) step() error {
	if !m.h.ord.collapse {
		return m.advance()
	}
	m.last, m.h.cs[0].rec = m.h.cs[0].rec, m.last
	for {
		if err := m.advance(); err != nil {
			return err
		}
		if r := m.head(); r == nil || m.h.ord.cmp(r, &m.last) != 0 {
			return nil
		}
	}
}

// Next returns the head record's row and steps past it; (nil, nil) at end.
func (m *merger) Next() (value.Row, error) {
	r := m.head()
	if r == nil {
		return nil, nil
	}
	row := r.row
	if err := m.step(); err != nil {
		return nil, err
	}
	return row, nil
}

// Close releases the files still held.
func (m *merger) Close() {
	if m == nil {
		return
	}
	for _, c := range m.h.cs {
		c.f.Close()
	}
	m.h.cs = nil
}
