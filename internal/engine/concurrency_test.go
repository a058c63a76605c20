package engine

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentSessions runs parallel sessions over one shared database:
// writers appending to their own tables, readers running provenance queries
// over a shared table. Run under -race this guards the locking discipline of
// catalog, storage and session state.
func TestConcurrentSessions(t *testing.T) {
	db := NewDB()
	setup := db.NewSession()
	if _, err := setup.ExecuteScript(`
		CREATE TABLE shared (a int, b int);
		INSERT INTO shared VALUES (1, 10), (2, 20), (3, 30);
		ANALYZE;
	`); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			table := fmt.Sprintf("private%d", w)
			if _, err := s.Execute(`CREATE TABLE ` + table + ` (x int)`); err != nil {
				errs <- err
				return
			}
			for i := 0; i < 20; i++ {
				if _, err := s.Execute(fmt.Sprintf(`INSERT INTO %s VALUES (%d)`, table, i)); err != nil {
					errs <- err
					return
				}
			}
			res, err := s.Execute(`SELECT count(*) FROM ` + table)
			if err != nil {
				errs <- err
				return
			}
			if res.Rows[0][0].Int() != 20 {
				errs <- fmt.Errorf("worker %d: count = %v", w, res.Rows[0][0])
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := db.NewSession()
			if r%2 == 0 {
				if _, err := s.Execute(`SET provenance_contribution = 'copy'`); err != nil {
					errs <- err
					return
				}
			}
			for i := 0; i < 20; i++ {
				res, err := s.Execute(`SELECT PROVENANCE a, b FROM shared WHERE a >= 1`)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 3 {
					errs <- fmt.Errorf("reader %d: rows = %d", r, len(res.Rows))
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
