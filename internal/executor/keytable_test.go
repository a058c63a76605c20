package executor

import (
	"fmt"
	"math/rand"
	"testing"
)

// keyModel is the reference a keyTable is held to: a Go map from key to the
// entry numbers holding it, in insertion order, plus every entry's key.
type keyModel struct {
	byKey map[string][]int
	keys  []string
	dead  []bool
}

func newKeyModel() *keyModel { return &keyModel{byKey: map[string][]int{}} }

func (m *keyModel) add(key string, keyed bool) int {
	i := len(m.keys)
	m.keys, m.dead = append(m.keys, key), append(m.dead, !keyed)
	if keyed {
		m.byKey[key] = append(m.byKey[key], i)
	}
	return i
}

// live lists the entries a lookup of key must meet, in order.
func (m *keyModel) live(key string) []int {
	var out []int
	for _, i := range m.byKey[key] {
		if !m.dead[i] {
			out = append(out, i)
		}
	}
	return out
}

// checkKeyTable holds every key of the model, and a few it does not have, to
// the table: the chain of find and next is the model's list, and every entry
// keeps its number and its bytes.
func checkKeyTable(t *testing.T, tbl *keyTable, m *keyModel, probes []string) {
	t.Helper()
	if len(tbl.entries) != len(m.keys) {
		t.Fatalf("table has %d entries, model %d", len(tbl.entries), len(m.keys))
	}
	for i, k := range m.keys {
		if tbl.dead(i) != m.dead[i] {
			t.Fatalf("entry %d: dead = %v, want %v", i, tbl.dead(i), m.dead[i])
		}
		if got := tbl.key(i); m.dead[i] && got != nil || !m.dead[i] && string(got) != k {
			t.Fatalf("entry %d holds %q, want %q (dead: %v)", i, got, k, m.dead[i])
		}
	}
	for _, k := range probes {
		var got []int
		for i := tbl.find([]byte(k)); i >= 0; i = tbl.next(i, []byte(k)) {
			got = append(got, i)
		}
		if want := m.live(k); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("key %q: lookups meet %v, want %v", k, got, want)
		}
	}
}

// TestKeyTableAgainstMap: insert and lookup against a map[string] reference
// across several rehashes, with dead entries, an empty key and one-byte keys;
// entry numbers are insertion ordinals throughout.
func TestKeyTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tbl keyTable
	m := newKeyModel()
	keys := []string{"", "a", "b", "\x00"}
	for i := 0; i < 3000; i++ {
		keys = append(keys, fmt.Sprintf("key-%d-%s", rng.Intn(1500), "xxxxxxxxxxxxxxxx"[:rng.Intn(16)]))
	}
	if tbl.find([]byte("a")) != -1 {
		t.Fatal("an empty table found a key")
	}
	rehashes, buckets := 0, 0
	for n, k := range keys {
		want, had := -1, false
		if l := m.live(k); len(l) > 0 {
			want, had = l[0], true
		}
		i, isNew := tbl.insert([]byte(k))
		if isNew == had || (had && i != want) || (!had && i != len(m.keys)) {
			t.Fatalf("insert(%q) = %d, %v; the model has it at %d (%v)", k, i, isNew, want, had)
		}
		if isNew {
			m.add(k, true)
		}
		if len(tbl.heads) != buckets {
			rehashes, buckets = rehashes+1, len(tbl.heads)
		}
		// Now and then an entry dies: it keeps its number, matches nothing,
		// and its key can be inserted afresh.
		if n%97 == 5 {
			d := rng.Intn(len(m.keys))
			tbl.kill(d)
			m.dead[d] = true
		}
		if n%500 == 0 {
			checkKeyTable(t, &tbl, m, append(keys[:n+1:n+1], "absent", "key-"))
		}
	}
	checkKeyTable(t, &tbl, m, append(keys, "absent"))
	if rehashes < 5 {
		t.Errorf("the table rehashed %d times over %d keys: the test does not cross enough growth steps", rehashes, len(m.keys))
	}
	tbl.reset()
	if tbl.find([]byte("a")) != -1 || len(tbl.entries) != 0 {
		t.Error("a reset table still holds keys")
	}
	if i, isNew := tbl.insert([]byte("a")); i != 0 || !isNew {
		t.Errorf("first insert after reset = %d, %v", i, isNew)
	}
}

// TestKeyTableDuplicateChains: add admits duplicates and unkeyed entries, and
// a lookup meets the entries of one key in the order they were added, whatever
// the bucket collisions — the order a probe must meet its build rows in.
func TestKeyTableDuplicateChains(t *testing.T) {
	var tbl keyTable
	m := newKeyModel()
	var probes []string
	for k := 0; k < 13; k++ {
		probes = append(probes, fmt.Sprint("k", k))
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 1000; i++ {
			k, keyed := probes[i%13], i%10 != 0
			if got, want := tbl.add([]byte(k), keyed), m.add(k, keyed); got != want {
				t.Fatalf("add returned entry %d, want %d", got, want)
			}
		}
		// Lookups between rounds of adds relink the table each time.
		checkKeyTable(t, &tbl, m, append(probes, "k13", ""))
	}
	// A reloaded table holds only what it holds now.
	tbl.reset()
	tbl.add([]byte("k1"), true)
	if i := tbl.find([]byte("k1")); i != 0 || tbl.next(i, []byte("k1")) != -1 {
		t.Errorf("after reset: find = %d, then %d", i, tbl.next(i, []byte("k1")))
	}
}

// FuzzKeyTable replays a byte string as inserts, adds (keyed or not), kills
// and lookups, over keys of zero to two bytes, against the map reference.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte{4, 'a', 0, 5, 'a', 4, 'b', 2, 3, 8, 'a', 'b', 1, 3})
	f.Add([]byte{1, 1, 1, 0, 0, 2, 3, 5, 'u', 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tbl keyTable
		m := newKeyModel()
		probes := []string{"", "a"}
		for len(ops) > 0 {
			op, n := ops[0]%4, min(int(ops[0]>>2)%3, len(ops)-1)
			k := string(ops[1 : 1+n])
			ops = ops[1+n:]
			probes = append(probes, k)
			switch op {
			case 0:
				l := m.live(k)
				i, isNew := tbl.insert([]byte(k))
				if isNew != (len(l) == 0) || (!isNew && i != l[0]) || (isNew && i != m.add(k, true)) {
					t.Fatalf("insert(%q) = %d, %v; the model holds it at %v", k, i, isNew, l)
				}
			case 1:
				if got, want := tbl.add([]byte(k), k != "u"), m.add(k, k != "u"); got != want {
					t.Fatalf("add(%q) = %d, want %d", k, got, want)
				}
			case 2:
				if len(m.keys) > 0 {
					d := len(probes) % len(m.keys)
					tbl.kill(d)
					m.dead[d] = true
				}
			case 3:
				checkKeyTable(t, &tbl, m, probes)
			}
		}
		checkKeyTable(t, &tbl, m, probes)
	})
}
