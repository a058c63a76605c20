package executor

import (
	"bytes"
	"hash/maphash"
)

// keyHashSeed seeds every keyTable, so stored hashes hold for any lookup.
var keyHashSeed = maphash.MakeSeed()

// keyEntry is one key of a keyTable: where its bytes sit in the arena, its
// hash, and the next entry of its bucket chain (-1 at the end). n < 0 marks a
// dead entry, which no lookup matches: an unkeyed build row, an evicted group.
type keyEntry struct {
	hash uint64
	off  int
	n    int32
	next int32
}

// keyTable is the one hash table of the executor: byte keys (value.AppendKey
// encodings) in insertion order, their bytes back to back in one arena,
// nothing allocated per key. An entry's number is its insertion ordinal; what
// a caller holds per key — a group and its states, a count, a build row —
// lives in the caller's own slices under that number. insert keeps keys
// unique; add admits duplicates, which a lookup meets in insertion order.
type keyTable struct {
	entries []keyEntry
	arena   []byte
	heads   []int32 // bucket → first entry of its chain, -1 when empty
	// entries[:linked] are in the chains: insert links its entry at once, add
	// leaves its entries to the next lookup, which relinks the table.
	linked int
}

// key returns entry i's bytes, nil for a dead entry.
func (t *keyTable) key(i int) []byte {
	e := &t.entries[i]
	if e.n < 0 {
		return nil
	}
	return t.arena[e.off : e.off+int(e.n)]
}

func (t *keyTable) dead(i int) bool { return t.entries[i].n < 0 }

// kill makes entry i dead. It keeps its number and its place in its chain.
func (t *keyTable) kill(i int) { t.entries[i].n = -1 }

// reset empties the table, keeping its storage for the next load.
func (t *keyTable) reset() {
	t.entries, t.arena, t.heads, t.linked = t.entries[:0], t.arena[:0], t.heads[:0], 0
}

// add appends an entry for key, a duplicate or not, and returns its number;
// keyed=false appends a dead entry.
func (t *keyTable) add(key []byte, keyed bool) int {
	if !keyed {
		return t.push(keyEntry{n: -1}, nil)
	}
	return t.push(keyEntry{hash: maphash.Bytes(keyHashSeed, key)}, key)
}

// push appends e, unlinked, with its key bytes.
func (t *keyTable) push(e keyEntry, key []byte) int {
	if t.entries == nil {
		// Room for a handful: a four-group aggregation grows nothing.
		t.entries, t.arena = make([]keyEntry, 0, 8), make([]byte, 0, 8*max(len(key), 8))
	}
	if e.n >= 0 {
		e.off, e.n = len(t.arena), int32(len(key))
		t.arena = append(roomFor(t.arena, len(key)), key...)
	}
	t.entries = append(roomFor(t.entries, 1), e)
	return len(t.entries) - 1
}

// link rebuilds the chains over every entry, in more buckets (a power of two)
// than entries. Entries link in from last to first, each at the head of its
// chain, which leaves every chain in insertion order; no key is read.
func (t *keyTable) link() {
	buckets := 8
	for buckets <= len(t.entries) {
		buckets <<= 1
	}
	if cap(t.heads) < buckets {
		t.heads = make([]int32, buckets)
	}
	t.heads = t.heads[:buckets]
	for b := range t.heads {
		t.heads[b] = -1
	}
	for i := len(t.entries) - 1; i >= 0; i-- {
		if e := &t.entries[i]; e.n >= 0 {
			b := &t.heads[e.hash&uint64(buckets-1)]
			e.next, *b = *b, int32(i)
		}
	}
	t.linked = len(t.entries)
}

// match walks a chain from entry i on to the first entry holding key.
func (t *keyTable) match(i int32, hash uint64, key []byte) int {
	for ; i >= 0; i = t.entries[i].next {
		e := &t.entries[i]
		if e.hash == hash && int(e.n) == len(key) && bytes.Equal(t.arena[e.off:e.off+len(key)], key) {
			return int(i)
		}
	}
	return -1
}

// find returns the first entry holding key, -1 when there is none.
func (t *keyTable) find(key []byte) int {
	i, _ := t.lookup(key, false)
	return i
}

// insert returns the entry holding key, appending one if none does.
func (t *keyTable) insert(key []byte) (i int, isNew bool) { return t.lookup(key, true) }

func (t *keyTable) lookup(key []byte, insert bool) (i int, isNew bool) {
	if t.linked < len(t.entries) || (insert && len(t.entries) >= len(t.heads)) {
		t.link()
	}
	if len(t.heads) == 0 {
		return -1, false
	}
	hash := maphash.Bytes(keyHashSeed, key)
	b := &t.heads[hash&uint64(len(t.heads)-1)]
	if i = t.match(*b, hash, key); i >= 0 || !insert {
		return i, false
	}
	// The new entry heads its chain: among distinct keys order decides nothing.
	i = t.push(keyEntry{hash: hash, next: *b}, key)
	*b = int32(i)
	t.linked++
	return i, true
}

// next returns the entry after i that holds the same key, which i — a result
// of find or next for it — holds too; -1 after the last.
func (t *keyTable) next(i int, key []byte) int {
	return t.match(t.entries[i].next, t.entries[i].hash, key)
}
