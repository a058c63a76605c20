package workload

import (
	"testing"

	"perm/internal/engine"
)

func TestLoadForumDeterministic(t *testing.T) {
	db1, db2 := engine.NewDB(), engine.NewDB()
	cfg := DefaultForum(200)
	if err := LoadForum(db1, cfg); err != nil {
		t.Fatal(err)
	}
	if err := LoadForum(db2, cfg); err != nil {
		t.Fatal(err)
	}
	s1, s2 := db1.NewSession(), db2.NewSession()
	for _, q := range []string{
		`SELECT count(*) FROM messages`,
		`SELECT count(*) FROM imports`,
		`SELECT sum(uid) FROM approved`,
		`SELECT count(*) FROM v1`,
	} {
		r1, err := s1.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := s2.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Rows[0].Key() != r2.Rows[0].Key() {
			t.Errorf("%q not deterministic: %v vs %v", q, r1.Rows[0], r2.Rows[0])
		}
	}
}

func TestLoadForumSizes(t *testing.T) {
	db := engine.NewDB()
	cfg := DefaultForum(100)
	if err := LoadForum(db, cfg); err != nil {
		t.Fatal(err)
	}
	cat := db.Catalog()
	if got := cat.TableStats("messages").RowCount; got != 100 {
		t.Errorf("messages = %d", got)
	}
	if got := cat.TableStats("imports").RowCount; got != 50 {
		t.Errorf("imports = %d", got)
	}
	if cat.View("v1") == nil {
		t.Error("view v1 missing")
	}
	// Provenance queries must run on the generated data.
	s := db.NewSession()
	res, err := s.Execute(`SELECT PROVENANCE mid, text FROM messages UNION SELECT mid, text FROM imports`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 150 {
		t.Errorf("union provenance rows = %d, want 150", len(res.Rows))
	}
}

func TestDuplicateTextFraction(t *testing.T) {
	db := engine.NewDB()
	cfg := DefaultForum(500)
	cfg.DuplicateTextFrac = 0.5
	if err := LoadForum(db, cfg); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	res, err := s.Execute(`
		SELECT count(*) FROM messages m JOIN imports i ON m.text = i.text`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() == 0 {
		t.Error("duplicate fraction produced no shared texts")
	}
}

func TestLoadStar(t *testing.T) {
	db := engine.NewDB()
	if err := LoadStar(db, DefaultStar(300)); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	res, err := s.Execute(`
		SELECT count(*) FROM sales s JOIN customers c ON s.cid = c.cid
		JOIN products p ON s.pid = p.pid`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 300 {
		t.Errorf("fact join count = %v, want 300 (FK integrity)", res.Rows[0])
	}
}

func TestLoadPaperExample(t *testing.T) {
	db := engine.NewDB()
	if err := LoadPaperExample(db); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	res, err := s.Execute(`SELECT count(*) FROM v1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 4 {
		t.Errorf("v1 count = %v, want 4", res.Rows[0])
	}
}
