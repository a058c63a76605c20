package cluster

import "perm/internal/sql"

// StatementClass is the router's three-way routing decision for one SQL
// statement.
type StatementClass int

const (
	// ClassRead statements mutate nothing and are idempotent: safe on any
	// member, safe to retry on another member if the first dies mid-request.
	ClassRead StatementClass = iota
	// ClassWrite statements mutate data or schema: primary only, never
	// retried by the router (the failure mode "did it commit?" belongs to
	// the client).
	ClassWrite
	// ClassSession statements (SET) mutate per-session state only. The
	// router records them and replays them onto every backend the session
	// touches, so contribution semantics and rewrite strategies follow the
	// session across members.
	ClassSession
)

// Classify routes one SQL statement by its first token, the word the
// driver's read-only enforcement reads too: SELECT, VALUES, EXPLAIN, SHOW,
// parenthesized queries and empty statements read; SET is session-local;
// everything else writes.
func Classify(text string) StatementClass {
	kw := sql.FirstKeyword(text)
	switch {
	case kw == "" || kw == "(" || sql.KeywordIs(kw, "select", "values", "explain", "show"):
		return ClassRead
	case sql.KeywordIs(kw, "set"):
		return ClassSession
	}
	return ClassWrite
}
