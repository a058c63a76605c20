package engine

import (
	"sort"
	"strings"
	"sync"

	"perm/internal/algebra"
	"perm/internal/executor"
	"perm/internal/sql"
	"perm/internal/value"
)

// The session-level plan cache skips the front half of the Figure 3 pipeline
// (parse → analyze → provenance rewrite → plan) for repeated statements — the
// dominant pattern in benchmark loops and figure-regenerating experiments.
// A query and a write (INSERT, UPDATE, DELETE: a Modify plan) are cached
// alike; a cached write still runs, and passes the read-only gate, on every
// hit.
//
// Keying: normalized statement text plus a fingerprint of every session
// setting. Normalization is deliberately conservative (whitespace trim and
// trailing-semicolon strip only): anything smarter would have to understand
// string literals, and a false key collision would serve wrong results.
// Because the settings fingerprint is part of the key, any SET — contribution
// semantics, rewrite-strategy toggles, the optimizer switch — immediately
// re-plans without explicit invalidation.
//
// Invalidation: entries are tagged with the catalog schema version captured
// BEFORE planning. DDL (CREATE/DROP TABLE, CREATE/DROP VIEW) and ANALYZE bump
// the version, so a stale entry is detected and dropped on its next lookup,
// even when the DDL ran in a different session. Writes of rows do not
// invalidate: plans read table heaps by name at Open time, so a cached plan
// always sees current data. A write does refresh row-count statistics, which cost-based rewrite strategies consult at plan time — a
// deliberate tradeoff: bumping the version on every INSERT would defeat the
// cache for exactly the repeated-statement workloads it targets, so a cached
// plan keeps its original cost decision (always correct, possibly stale)
// until ANALYZE or DDL forces a re-plan, mirroring how production DBMSs
// re-plan on statistics refresh rather than per write.
//
// Each session owns its cache (cross-session isolation); the cache itself is
// mutex-guarded because perm.DB shares its implicit session across goroutines.

// planCacheCap bounds the number of cached plans per session.
const planCacheCap = 256

// planCacheEntry is one cached, fully optimized plan.
type planCacheEntry struct {
	plan      algebra.Op
	columns   []string
	decisions []string
	// schemaVersion is the catalog version the plan was built against.
	schemaVersion uint64
	// hints size the slabs of the plan's next run from its last one.
	hints executor.SizeHints
}

// planCache is a per-session statement-text → plan map with hit/miss counters.
type planCache struct {
	mu      sync.Mutex
	entries map[string]*planCacheEntry
	hits    uint64
	misses  uint64
}

func newPlanCache() *planCache {
	return &planCache{entries: make(map[string]*planCacheEntry)}
}

// get returns the cached entry for key if it exists and is still valid under
// the current schema version; stale entries are evicted. Only hits are
// counted here: a lookup miss for a statement that never becomes cacheable
// (DDL, DML) is not a cache miss, so put counts the misses instead.
func (c *planCache) get(key string, schemaVersion uint64) *planCacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		return nil
	}
	if e.schemaVersion != schemaVersion {
		delete(c.entries, key)
		return nil
	}
	c.hits++
	return e
}

// put stores a freshly planned statement and records the miss that caused the
// plan to be built. Arbitrary entries are evicted once the cap is reached
// (repeated-statement workloads rarely exceed it; correctness never depends
// on what is evicted).
func (c *planCache) put(key string, e *planCacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses++
	if len(c.entries) >= planCacheCap {
		for k := range c.entries {
			delete(c.entries, k)
			if len(c.entries) < planCacheCap {
				break
			}
		}
	}
	c.entries[key] = e
}

// reset drops every cached plan (session teardown).
func (c *planCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*planCacheEntry)
}

// stats returns the counters and current size.
func (c *planCache) stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.entries)
}

// cacheableStatement is a cheap pre-screen run before any key building: only
// statements that can possibly parse as a query or a write (the only
// statements ever stored) pay for a cache key and a locked lookup.
// DDL/SET/SHOW skip the cache path entirely. It reads the first token as
// the parser does, past comments and empty statements, and allocates
// nothing: every query starts with SELECT, VALUES or a parenthesis.
func cacheableStatement(text string) bool {
	kw := sql.FirstKeyword(text)
	return kw == "(" || sql.KeywordIs(kw, "select", "values", "insert", "update", "delete")
}

// normalizeSQL trims insignificant leading/trailing bytes from a statement.
// It must never merge two statements with different semantics; interior
// whitespace is significant inside string literals and is left untouched.
func normalizeSQL(text string) string {
	return strings.TrimRight(strings.TrimSpace(text), "; \t\n\r")
}

// planNeutralSettings are session settings that never influence what plan
// the pipeline produces — observability toggles and the executor's resources
// (Context.Parallel, the MemTracker budget), all bound at executor-open time,
// not plan time. They are excluded from the settings fingerprint so flipping
// them neither invalidates nor forks cached plans (and keeps cache keys
// short).
var planNeutralSettings = map[string]bool{
	"trace":         true,
	"slow_query_ms": true,
	"parallelism":   true,
	"work_mem":      true,
}

// computeFingerprint serializes every plan-affecting session setting into
// the key suffix. Its one caller, set, holds settingsMu; the result is
// memoized in s.fingerprint so the map is only iterated when a setting
// actually changes, never per statement.
func (s *Session) computeFingerprint() string {
	names := make([]string, 0, len(s.settings))
	for k := range s.settings {
		if !planNeutralSettings[k] {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s.settings[k])
		b.WriteByte(';')
	}
	return b.String()
}

// currentFingerprint reads the memoized settings fingerprint.
func (s *Session) currentFingerprint() string {
	s.settingsMu.RLock()
	defer s.settingsMu.RUnlock()
	return s.fingerprint
}

// cacheKey builds the plan-cache key for a statement under the session's
// current settings, also returning the fingerprint it embedded so callers can
// detect a settings change between key construction and plan storage. Bound
// `?` arguments contribute their kind vector: a prepared statement is planned
// (and cached) once per distinct argument-kind combination, because the
// analyzer types algebra.Param nodes from exactly those kinds. The 0x1f
// separator cannot occur in the fingerprint (setting names and values are
// plain words), so a suffixed key can never collide with an unsuffixed one.
func (s *Session) cacheKey(text string, args []value.Value) (key, fingerprint string) {
	fp := s.currentFingerprint()
	var b strings.Builder
	norm := normalizeSQL(text)
	b.Grow(len(norm) + 2 + len(fp) + len(args))
	b.WriteString(norm)
	b.WriteByte(0x1f)
	b.WriteString(fp)
	if len(args) > 0 {
		b.WriteByte(0x1f)
		for _, a := range args {
			b.WriteByte(byte(a.Kind()))
		}
	}
	return b.String(), fp
}

// planCacheOn reports whether the session has the plan cache enabled.
func (s *Session) planCacheOn() bool {
	v, _ := s.setting("plan_cache")
	return v == "on"
}
