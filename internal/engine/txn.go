package engine

import (
	"fmt"
	"sync"
	"time"

	"perm/internal/storage"
)

// ErrWriteConflict is the typed error a COMMIT fails with when
// first-committer-wins validation found that a concurrent transaction already
// changed a row this one wrote. The transaction is rolled back; the client
// retries it from BEGIN. Re-exported from storage so engine callers (and the
// network server, which maps it to a wire error code) match one sentinel.
var ErrWriteConflict = storage.ErrWriteConflict

// currentTxn returns the session's open explicit transaction, nil in
// autocommit mode.
func (s *Session) currentTxn() *storage.Txn {
	s.txnMu.Lock()
	defer s.txnMu.Unlock()
	return s.txn
}

// runBegin opens an explicit transaction: reads pin the store's current
// snapshot, writes buffer until COMMIT. BEGIN on a read-only replica is
// allowed — it opens a perfectly useful read-only snapshot transaction; DML
// inside it is rejected statement by statement exactly as in autocommit.
func (s *Session) runBegin() (*Result, error) {
	s.txnMu.Lock()
	defer s.txnMu.Unlock()
	if s.txn != nil {
		return nil, fmt.Errorf("engine: a transaction is already in progress")
	}
	s.txn = s.db.Store().Begin()
	return &Result{Tag: "BEGIN"}, nil
}

// runCommit validates and applies the open transaction. On a write conflict
// the error wraps ErrWriteConflict and the transaction is already rolled
// back — either way the session is back in autocommit afterwards.
func (s *Session) runCommit() (*Result, error) {
	s.txnMu.Lock()
	txn := s.txn
	s.txn = nil
	s.txnMu.Unlock()
	if txn == nil {
		return nil, fmt.Errorf("engine: no transaction in progress")
	}
	if err := txn.Commit(); err != nil {
		return nil, err
	}
	return &Result{Tag: "COMMIT"}, nil
}

// runRollback discards the open transaction's buffered writes.
func (s *Session) runRollback() (*Result, error) {
	s.txnMu.Lock()
	txn := s.txn
	s.txn = nil
	s.txnMu.Unlock()
	if txn == nil {
		return nil, fmt.Errorf("engine: no transaction in progress")
	}
	txn.Rollback()
	return &Result{Tag: "ROLLBACK"}, nil
}

// rollbackOpenTxn releases a still-open transaction at session close, so an
// abandoned connection cannot hold the vacuum horizon forever.
func (s *Session) rollbackOpenTxn() {
	s.txnMu.Lock()
	txn := s.txn
	s.txn = nil
	s.txnMu.Unlock()
	if txn != nil {
		txn.Rollback()
	}
}

// StartVacuum runs the version vacuum every interval until the returned stop
// function is called. The vacuum reclaims row versions no pinned snapshot
// can see; its pace only affects memory, never correctness, so one modest
// background cadence per process is enough.
func (db *DB) StartVacuum(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				db.Store().Vacuum()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
