package repl

import (
	"fmt"
	"sync"

	"perm/internal/value"
)

// DefaultRetention is the number of records a ChangeLog keeps by default.
// A follower that falls further behind than the retained tail cannot resume
// incrementally and must re-bootstrap from a snapshot.
const DefaultRetention = 100_000

// DefaultRetentionBytes bounds the approximate memory the retained tail may
// pin (64 MiB). Record counts alone don't bound memory — delete/update
// records alias full row images, so a handful of full-table mutations on a
// wide table could otherwise pin multiples of the live heap.
const DefaultRetentionBytes = 64 << 20

// ChangeLog is an in-memory, bounded log of committed changes. It is safe
// for concurrent use: the storage engine appends from mutation critical
// sections while subscription streams read tails and wait for growth.
//
// The log is a sliding window: records past the retention limit are trimmed
// from the front, and Since reports when a requested position has been
// trimmed away so the caller can fall back to a full snapshot.
type ChangeLog struct {
	mu sync.Mutex
	// recs holds the retained tail; recs[i].LSN == base+1+i.
	recs []Record
	// costs[i] is the approximate retained size of recs[i] (see recordCost);
	// totalCost is their sum.
	costs     []int
	totalCost int
	// base is the LSN of the last record trimmed away (0 when nothing ever
	// was), i.e. the log currently describes (base, base+len(recs)].
	base        uint64
	retain      int
	retainBytes int
	// trimmed counts records dropped since the last reallocation; slicing
	// from the front pins the backing array (and every row it references),
	// so the tail is copied out once trimming has advanced far enough.
	trimmed int
	// notify is closed and replaced on every append: a snapshot of this
	// channel is a one-shot "the log has grown" signal for subscribers.
	notify chan struct{}
	// hook, when set, observes every accepted record under l.mu, in strict
	// LSN order, inside the same critical section that published it — the
	// write-ahead log journals from here, so a point-in-time snapshot, the
	// in-memory log and the on-disk log can never disagree on ordering.
	hook func(Record)
}

// NewChangeLog returns an empty log with the default retention bounds.
func NewChangeLog() *ChangeLog {
	return &ChangeLog{
		retain:      DefaultRetention,
		retainBytes: DefaultRetentionBytes,
		notify:      make(chan struct{}),
	}
}

// SetRetention bounds the number of retained records; n <= 0 keeps every
// record (tests, short-lived tools). Lowering it takes effect on the next
// append.
func (l *ChangeLog) SetRetention(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.retain = n
}

// SetRetentionBytes bounds the approximate memory of the retained tail;
// n <= 0 removes the byte bound. The newest record is always kept, so one
// oversized mutation streams through rather than wedging the log.
func (l *ChangeLog) SetRetentionBytes(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.retainBytes = n
}

// Retention reports the record-count and byte bounds, so a freshly
// bootstrapped store can inherit the configuration of the one it replaces.
func (l *ChangeLog) Retention() (records, bytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.retain, l.retainBytes
}

// recordCost approximates the bytes rec pins while retained: slice and
// value headers plus string payloads. Row values are shared with the heap
// (inserts) or were just detached from it (deletes/updates), so this is an
// upper bound on what retention alone keeps alive.
func recordCost(rec Record) int {
	c := 96 + len(rec.Table) + len(rec.ViewText) + 32*len(rec.Columns)
	for _, rows := range [2][]value.Row{rec.Rows, rec.OldRows} {
		for _, row := range rows {
			c += 24 * (len(row) + 1)
			for _, v := range row {
				c += len(v.Str())
			}
		}
	}
	return c
}

// Append assigns the next LSN to rec, appends it, and returns the LSN.
func (l *ChangeLog) Append(rec Record) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec.LSN = l.base + uint64(len(l.recs)) + 1
	l.push(rec)
	return rec.LSN
}

// AppendAt appends a record that already carries its LSN (a replica replaying
// the primary's feed). The LSN must be exactly the next position; anything
// else means the caller lost continuity and must resynchronize.
func (l *ChangeLog) AppendAt(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	next := l.base + uint64(len(l.recs)) + 1
	if rec.LSN != next {
		return fmt.Errorf("repl: append at LSN %d, log expects %d", rec.LSN, next)
	}
	l.push(rec)
	return nil
}

// SetAppendHook installs (or, with nil, removes) the per-append observer.
// The hook runs under the log's mutex on every accepted record — it must
// not call back into the log, and it must not block on anything slower
// than a buffered file write (fsync waiting belongs to the caller's
// post-critical-section durability wait, not here).
func (l *ChangeLog) SetAppendHook(fn func(Record)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hook = fn
}

// push appends under l.mu, trims past the retention bounds, and wakes
// subscribers.
func (l *ChangeLog) push(rec Record) {
	if l.hook != nil {
		l.hook(rec)
	}
	l.recs = append(l.recs, rec)
	l.costs = append(l.costs, recordCost(rec))
	l.totalCost += l.costs[len(l.costs)-1]
	drop := 0
	if l.retain > 0 && len(l.recs) > l.retain {
		drop = len(l.recs) - l.retain
	}
	if l.retainBytes > 0 {
		// Drop oldest records until under the byte budget, but never the
		// newest one. Start from the cost of what the count bound already
		// kept — the prefix it drops must not count against the budget too.
		cost := l.totalCost
		for _, c := range l.costs[:drop] {
			cost -= c
		}
		for drop < len(l.recs)-1 && cost > l.retainBytes {
			cost -= l.costs[drop]
			drop++
		}
	}
	if drop > 0 {
		for _, c := range l.costs[:drop] {
			l.totalCost -= c
		}
		l.base += uint64(drop)
		l.recs = l.recs[drop:]
		l.costs = l.costs[drop:]
		l.trimmed += drop
		// Reallocate once the dropped prefix rivals the retained tail, so
		// trimming actually releases the old records' memory (amortized O(1)
		// per append).
		if l.trimmed >= len(l.recs)+1 {
			l.recs = append(make([]Record, 0, len(l.recs)), l.recs...)
			l.costs = append(make([]int, 0, len(l.costs)), l.costs...)
			l.trimmed = 0
		}
	}
	close(l.notify)
	l.notify = make(chan struct{})
}

// LastLSN returns the LSN of the newest record (the log's position). It is
// also the node's replication position: on a replica the log replays the
// primary's records at their original LSNs, so LastLSN is "applied LSN".
func (l *ChangeLog) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + uint64(len(l.recs))
}

// OldestLSN returns the LSN of the oldest retained record, or 0 when the
// retained tail is empty.
func (l *ChangeLog) OldestLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recs) == 0 {
		return 0
	}
	return l.base + 1
}

// Since returns up to max records with LSN > after (all of them when max <=
// 0). ok is false when records after `after` have already been trimmed —
// the caller cannot catch up incrementally and must take a snapshot.
func (l *ChangeLog) Since(after uint64, max int) (recs []Record, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after < l.base {
		return nil, false
	}
	// The subtraction stays in uint64: a position far past the tail (or an
	// attacker-controlled huge LSN) must compare, not overflow an int.
	if after-l.base >= uint64(len(l.recs)) {
		return nil, true
	}
	idx := int(after - l.base)
	tail := l.recs[idx:]
	if max > 0 && len(tail) > max {
		tail = tail[:max]
	}
	// Copy the headers so trimming can never race a consumer iterating the
	// returned slice; the records themselves are immutable.
	recs = make([]Record, len(tail))
	copy(recs, tail)
	return recs, true
}

// WaitCh returns a channel closed by the next append. The standard pattern
// for tailing without missed wakeups is: take the channel, call Since, and
// only if Since returned nothing wait on the channel.
func (l *ChangeLog) WaitCh() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.notify
}

// Reset empties the log and positions it at lsn: the next assigned LSN is
// lsn+1, and no history before lsn is available. Restoring a snapshot taken
// at LSN lsn uses this so the restored node continues the primary's LSN
// space.
func (l *ChangeLog) Reset(lsn uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.base = lsn
	l.recs = nil
	l.costs = nil
	l.totalCost = 0
	l.trimmed = 0
	close(l.notify)
	l.notify = make(chan struct{})
}
