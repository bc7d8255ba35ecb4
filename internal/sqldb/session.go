// Per-connection sessions and concurrent transactions.
//
// The seed serialized every transaction behind one global mutex: BEGIN
// latched the whole database, matching the paper's single-writer evaluation
// but not production traffic. A Session is the unit of concurrency instead:
// the server opens one per TCP connection, and each session may hold its own
// open transaction.
//
// A transaction never mutates the shared tables while open. Its writes
// accumulate in a private buffer (per-table slot overlay plus pending
// inserts) that the session's own statements read through — read your
// writes — while every other session keeps reading committed state.
// Write-write conflicts are detected eagerly, first writer wins: the first
// transaction to write a row slot owns it until commit or rollback, and any
// other transaction (or autocommit statement) that tries to write the same
// slot fails with a WriteConflictError instead of blocking. COMMIT applies
// the buffer to the shared tables atomically under a short critical section
// (the database write lock), re-validating UNIQUE constraints against the
// then-current state — first committer wins for constraint conflicts — and
// then makes the batch durable through the WAL's group commit, off the
// database lock, so concurrent committers share fsyncs.
//
// What this buys and what it gives up: committed effects of row-level
// read-modify-write statements (UPDATE t SET x = x + 1 WHERE ...) are
// serializable, because the expression is evaluated against committed state
// at the moment the slot lock is taken and the slot cannot change
// underneath the owner. Plain reads take no locks, so a transaction that
// SELECTs a value and writes it back in a later statement can still lose a
// concurrent update — the stress tests (and the documented contract) use
// single-statement RMW for contended rows. UNIQUE violations inside a
// transaction surface at COMMIT, which then rolls the transaction back as a
// unit. DDL never rides a transaction: it executes and becomes durable
// immediately, as in the seed.
package sqldb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sqlparser"
)

// WriteConflictError reports that a statement tried to write a row slot
// owned by another open transaction (first writer wins). The losing side
// should ROLLBACK and retry; nothing of the failing statement was applied.
type WriteConflictError struct {
	Table string
	Slot  int
}

// Error implements the error interface.
func (e *WriteConflictError) Error() string {
	return fmt.Sprintf("sqldb: write conflict: row %d of %s is locked by a concurrent transaction", e.Slot, e.Table)
}

// Session is one client's execution context: an optional open transaction
// plus the statement entry points. Statements from different sessions run
// concurrently (reads in parallel, writes serialized by the database lock
// but overlapping in the WAL's group commit); statements within one session
// execute in order. A Session must be Closed when its connection goes away:
// Close rolls back any open transaction, releasing its row locks.
type Session struct {
	db *DB

	mu     sync.Mutex // guards txn and closed
	txn    *Txn
	closed bool
}

// NewSession creates an independent session on db.
func (db *DB) NewSession() *Session {
	return &Session{db: db}
}

// Close releases the session, rolling back any open transaction. Further
// statements on the session fail. Safe to call more than once.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.txn != nil {
		s.rollbackLocked()
	}
	return nil
}

// InTxn reports whether the session has an open transaction.
func (s *Session) InTxn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.txn != nil
}

// TxnMetaPending reports whether the open transaction carries a metadata
// blob that will commit with it. The proxy uses this to re-seal fresh
// metadata at COMMIT time (see the CommitStmt case in exec).
func (s *Session) TxnMetaPending() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.txn != nil && s.txn.meta != nil
}

// ExecSQL parses and executes one statement on this session.
func (s *Session) ExecSQL(sql string, params ...Value) (*Result, error) {
	st, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.Exec(st, params...)
}

// Exec executes a parsed statement on this session.
func (s *Session) Exec(st sqlparser.Statement, params ...Value) (*Result, error) {
	return s.exec(st, nil, params)
}

// ExecWithMeta executes a write statement with an attached metadata blob
// (see DB.ExecWithMeta). Inside an open transaction the blob commits with
// the transaction's WAL batch — durable iff the transaction's writes are.
func (s *Session) ExecWithMeta(st sqlparser.Statement, meta []byte, params ...Value) (*Result, error) {
	return s.exec(st, meta, params)
}

func (s *Session) exec(st sqlparser.Statement, meta []byte, params []Value) (*Result, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("sqldb: session is closed")
	}
	s.mu.Unlock()
	switch x := st.(type) {
	case *sqlparser.BeginStmt:
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return nil, fmt.Errorf("sqldb: session is closed")
		}
		if s.txn != nil {
			return nil, fmt.Errorf("sqldb: BEGIN inside an open transaction")
		}
		s.txn = newTxn(s.db)
		s.db.registerTxn(s.txn)
		return &Result{}, nil
	case *sqlparser.CommitStmt:
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.txn != nil && meta != nil {
			// A blob passed with COMMIT supersedes any statement-time
			// blob: the proxy re-seals its *current* metadata here, so
			// the committed blob can never be older than one an onion
			// adjustment committed while this transaction was open.
			s.txn.meta = append([]byte(nil), meta...)
		}
		return s.commitLocked()
	case *sqlparser.RollbackStmt:
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.txn == nil {
			return nil, fmt.Errorf("sqldb: ROLLBACK outside a transaction")
		}
		s.rollbackLocked()
		return &Result{}, nil
	case *sqlparser.SelectStmt:
		// touchesFrom reads the transaction's table map, which writes on
		// this session mutate under s.mu — so probe it under s.mu too,
		// then run the statement without it (reads stay concurrent).
		s.mu.Lock()
		txn := s.txn
		overlay := txn != nil && txn.touchesFrom(x.From)
		s.mu.Unlock()
		if overlay {
			// readStatement: a transactional read only consults shared pages
			// and the private buffer, and a page fault must surface as an
			// error, not a panic.
			return s.db.readStatement(func() (*Result, error) { return txn.execSelect(x, params) })
		}
		return s.db.execStateless(st, meta, params)
	case *sqlparser.InsertStmt:
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.txn != nil {
			res, err := s.db.readStatement(func() (*Result, error) { return s.txn.execInsert(x, params) })
			s.txn.attachMeta(meta, err)
			return res, err
		}
		return s.db.execStateless(st, meta, params)
	case *sqlparser.UpdateStmt:
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.txn != nil {
			res, err := s.db.readStatement(func() (*Result, error) { return s.txn.execUpdate(x, params) })
			s.txn.attachMeta(meta, err)
			return res, err
		}
		return s.db.execStateless(st, meta, params)
	case *sqlparser.DeleteStmt:
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.txn != nil {
			res, err := s.db.readStatement(func() (*Result, error) { return s.txn.execDelete(x, params) })
			s.txn.attachMeta(meta, err)
			return res, err
		}
		return s.db.execStateless(st, meta, params)
	default:
		// DDL and everything else: never transactional, executes and
		// becomes durable immediately (as in the seed, where DDL was not
		// undo-logged and survived ROLLBACK).
		return s.db.execStateless(st, meta, params)
	}
}

//
// Transaction state
//

// Txn is one open transaction: a private, per-table write buffer layered
// over the shared tables. Nothing in it is visible to other sessions until
// commit applies it under the database write lock.
type Txn struct {
	db     *DB
	tables map[string]*txnTable
	meta   []byte // latest ExecWithMeta blob; commits with the batch
}

// txnTable is the overlay for one table the transaction has written.
type txnTable struct {
	t    *Table
	mods map[int]*txnRow // base slot -> replacement (or tombstone)
	ins  []*txnRow       // rows this transaction inserted
}

// txnRow is one buffered row version.
type txnRow struct {
	row     []Value
	deleted bool
}

func newTxn(db *DB) *Txn {
	return &Txn{db: db, tables: make(map[string]*txnTable)}
}

// attachMeta records a statement's metadata blob for commit — only when
// the statement actually applied. A failed statement must not leave its
// blob behind: the metadata describes a state change that never happened.
func (txn *Txn) attachMeta(meta []byte, err error) {
	if err == nil && meta != nil {
		txn.meta = append([]byte(nil), meta...)
	}
}

// touchesFrom reports whether any table in a FROM list has overlay state,
// deciding between the shared fast path and the merged-view path.
func (txn *Txn) touchesFrom(from []sqlparser.TableRef) bool {
	for _, ref := range from {
		if tt := txn.tables[ref.Table]; tt != nil && (len(tt.mods) > 0 || len(tt.ins) > 0) {
			return true
		}
	}
	return false
}

// table returns (creating if needed) the overlay for t.
func (txn *Txn) table(t *Table) *txnTable {
	tt := txn.tables[t.Name]
	if tt == nil {
		tt = &txnTable{t: t, mods: make(map[int]*txnRow)}
		txn.tables[t.Name] = tt
	}
	return tt
}

//
// Merged views. A statement that must see the transaction's own writes
// executes against a merged copy of each touched table: committed rows at
// their real slots (with this transaction's modifications applied), pending
// inserts placed after them. Untouched tables are shared as-is. The copy
// costs O(rows) per touched table per statement — the steady state
// (autocommit, or transactions over tables they have not written yet) never
// pays it.
//

// mergedTable materializes the overlay view of one table. insAt maps merged
// slots back to the pending insert they shadow; any other slot is a base
// slot. Callers hold db.mu (read suffices).
func (txn *Txn) mergedTable(t *Table) (*Table, map[int]*txnRow) {
	tt := txn.tables[t.Name]
	if tt == nil || (len(tt.mods) == 0 && len(tt.ins) == 0) {
		return t, nil
	}
	return txn.buildMerged(t, tt)
}

// buildMerged copies t with tt's overlay applied. Split out so execInsert
// can force a private staging copy even while the overlay is still empty.
func (txn *Txn) buildMerged(t *Table, tt *txnTable) (*Table, map[int]*txnRow) {
	mt := newTable(t.Name, t.Cols)
	for col, idx := range t.indexes {
		// Unique enforcement is deferred to commit; the merged view only
		// needs the access paths, so uniqueness is dropped here (the
		// overlay may transiently duplicate a key it also deletes).
		if err := mt.addIndex(col, false); err != nil {
			panic(err) // column exists by construction
		}
		_ = idx
	}
	for col := range t.ordIndexes {
		if err := mt.addOrdIndex(col); err != nil {
			panic(err)
		}
	}
	t.scan(func(slot int, row []Value) bool {
		if m, ok := tt.mods[slot]; ok {
			if m.deleted {
				return true
			}
			row = m.row
		}
		if err := mt.placeRow(slot, row); err != nil {
			panic(err) // slots are unique by construction
		}
		return true
	})
	insAt := make(map[int]*txnRow, len(tt.ins))
	next := t.slotCount()
	for _, tr := range tt.ins {
		if tr.deleted {
			continue
		}
		if err := mt.placeRow(next, tr.row); err != nil {
			panic(err)
		}
		insAt[next] = tr
		next++
	}
	return mt, insAt
}

// viewDB wraps the shared database in a table map where every table the
// transaction touched is replaced by its merged view. The expensive shared
// pieces (UDF registries) are aliased, not copied. Callers hold db.mu.
func (txn *Txn) viewDB() *DB {
	view := &DB{
		tables:      make(map[string]*Table, len(txn.db.tables)),
		udfs:        txn.db.udfs,
		aggUDFs:     txn.db.aggUDFs,
		noCompile:   atomic.LoadInt32(&txn.db.noCompile),
		execWorkers: atomic.LoadInt32(&txn.db.execWorkers),
	}
	for name, t := range txn.db.tables {
		if tt := txn.tables[name]; tt != nil && (len(tt.mods) > 0 || len(tt.ins) > 0) {
			mt, _ := txn.mergedTable(t)
			view.tables[name] = mt
		} else {
			view.tables[name] = t
		}
	}
	return view
}

//
// Statement execution inside a transaction
//

func (txn *Txn) execSelect(s *sqlparser.SelectStmt, params []Value) (*Result, error) {
	db := txn.db
	defer db.trackBusy(time.Now())
	db.mu.RLock()
	defer db.mu.RUnlock()
	view := txn.viewDB()
	res, err := view.execSelect(s, params)
	// The view is a throwaway copy, so planner and morsel counters landed
	// on it; fold them into the shared database so transactional reads show
	// up in PlanCounters / Stats like autocommit reads do.
	db.absorbCounters(view)
	return res, err
}

// SelectUnion executes a read-only SELECT across several databases at
// once: every FROM table is the union of that table on each part
// session's database (newUnionTable), so joins, COUNT(DISTINCT) and every
// other shape run through the ordinary compiled pipeline (or the
// interpreter, when the first part has SetCompiledExec(false)) directly
// over the parts' pages and hash indexes; no row is copied and nothing is
// re-indexed. A part whose session has an open transaction that wrote a
// FROM table contributes the transaction's merged view of it (the copy a
// transactional SELECT on that database reads too), so the transaction
// reads its own writes. UDFs and execution settings come from the first
// part's database; parts must not be empty.
//
// db is the coordinator: it holds none of the tables the statement reads,
// but its PlanCounters and BusyNanos tally the statement.
//
// Locking: the statement holds every part's db.mu read side, taken in
// part order after the sessions' own locks are released, so it reads one
// consistent cut of all parts. Nothing that holds one part's db.mu ever
// waits for another's except here, in the same order, so no cycle forms.
func (db *DB) SelectUnion(parts []*Session, s *sqlparser.SelectStmt, params []Value) (res *Result, err error) {
	defer db.trackBusy(time.Now())
	txns := make([]*Txn, len(parts))
	for i, sess := range parts {
		sess.mu.Lock()
		closed := sess.closed
		txns[i] = sess.txn
		sess.mu.Unlock()
		if closed {
			return nil, fmt.Errorf("sqldb: session is closed")
		}
	}
	for _, sess := range parts {
		sess.db.mu.RLock()
		defer sess.db.mu.RUnlock()
	}
	first := parts[0].db
	u := &DB{
		tables:      make(map[string]*Table, len(s.From)),
		udfs:        first.udfs,
		aggUDFs:     first.aggUDFs,
		noCompile:   atomic.LoadInt32(&first.noCompile),
		execWorkers: atomic.LoadInt32(&first.execWorkers),
	}
	defer db.absorbCounters(u)
	defer catchPageFault(&err)
	for _, ref := range s.From {
		if u.tables[ref.Table] != nil {
			continue
		}
		ts := make([]*Table, len(parts))
		for i, sess := range parts {
			t, ok := sess.db.tables[ref.Table]
			if !ok {
				return nil, fmt.Errorf("sqldb: no table %s", ref.Table)
			}
			if txns[i] != nil {
				t, _ = txns[i].mergedTable(t)
			}
			ts[i] = t
		}
		u.tables[ref.Table] = newUnionTable(ref.Table, ts[0].Cols, ts)
	}
	return u.execSelect(s, params)
}

func (txn *Txn) execInsert(s *sqlparser.InsertStmt, params []Value) (*Result, error) {
	db := txn.db
	defer db.trackBusy(time.Now())
	// The read lock suffices: a transactional statement mutates only its
	// private buffer, and slot locks live in the striped lock table with
	// its own synchronization. Only commit (and autocommit writes, DDL)
	// take the write lock.
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("sqldb: no table %s", s.Table)
	}
	positions, err := insertPositions(t, s)
	if err != nil {
		return nil, err
	}
	tt := txn.table(t)
	// Always a private copy, even while the overlay is empty: the rows
	// staged below must not land in the shared table.
	mt, _ := txn.buildMerged(t, tt)
	sc := &scope{}
	sc.addTable("", t)
	// Stage every row before publishing any into the overlay, so an error
	// leaves the transaction's buffer exactly as it was (statement
	// atomicity). Uniqueness is pre-checked against the merged view — the
	// authoritative check re-runs at COMMIT against then-current state.
	staged := make([]*txnRow, 0, len(s.Rows))
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(positions) {
			return nil, fmt.Errorf("sqldb: INSERT has %d values for %d columns", len(exprRow), len(positions))
		}
		row := make([]Value, len(t.Cols))
		for i := range row {
			row[i] = Null()
		}
		for i, e := range exprRow {
			ctx := &evalCtx{db: db, scope: sc, tup: nil, params: params}
			v, err := ctx.eval(e)
			if err != nil {
				return nil, err
			}
			row[positions[i]] = v
		}
		for _, idx := range t.indexes {
			if idx.unique && len(mt.indexes[idx.column].m[row[idx.pos].Key()]) > 0 {
				return nil, fmt.Errorf("sqldb: unique index violation on %s.%s", t.Name, idx.column)
			}
		}
		if _, err := mt.insertRow(row); err != nil {
			return nil, err
		}
		staged = append(staged, &txnRow{row: row})
	}
	tt.ins = append(tt.ins, staged...)
	return &Result{Affected: len(staged)}, nil
}

func (txn *Txn) execUpdate(s *sqlparser.UpdateStmt, params []Value) (*Result, error) {
	db := txn.db
	defer db.trackBusy(time.Now())
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("sqldb: no table %s", s.Table)
	}
	targets := make([]int, len(s.Assignments))
	for i, a := range s.Assignments {
		pos := t.ColumnIndex(a.Column)
		if pos < 0 {
			return nil, fmt.Errorf("sqldb: no column %s.%s", s.Table, a.Column)
		}
		targets[i] = pos
	}
	mt, insAt := txn.mergedTable(t)
	sc := &scope{}
	sc.addTable("", mt)
	slots, err := db.matchSlots(mt, sc, s.Where, params)
	if err != nil {
		return nil, err
	}
	// Phase 1 — evaluate every new row, mutating nothing: an evaluation
	// error must leave both the overlay and the lock table untouched. The
	// owner probe here is advisory (fast fail); the authoritative claim is
	// the tryLock in phase 2, which arbitrates races with transactions
	// running concurrently under the read lock.
	type pendingMod struct {
		slot   int // base slot, or merged slot of a pending insert
		tr     *txnRow
		newRow []Value
	}
	var mods []pendingMod
	for _, slot := range slots {
		row := mt.rowAt(slot)
		if row == nil {
			continue
		}
		newVals := make([]Value, len(s.Assignments))
		for i, a := range s.Assignments {
			ctx := &evalCtx{db: db, scope: sc, tup: tuple{row}, params: params}
			v, err := ctx.eval(a.Value)
			if err != nil {
				return nil, err
			}
			newVals[i] = v
		}
		newRow := append([]Value(nil), row...)
		for i, pos := range targets {
			newRow[pos] = newVals[i]
		}
		if tr, pending := insAt[slot]; pending {
			mods = append(mods, pendingMod{slot: slot, tr: tr, newRow: newRow})
			continue
		}
		if owner := db.locks.owner(t, slot); owner != nil && owner != txn {
			return nil, &WriteConflictError{Table: t.Name, Slot: slot}
		}
		mods = append(mods, pendingMod{slot: slot, newRow: newRow})
	}
	// Phase 2a — claim every base-slot lock. A conflict releases exactly
	// the locks this statement acquired (not ones the transaction already
	// held from earlier statements) and buffers nothing.
	if err := lockSlots(txn, t, mods, func(m pendingMod) (int, bool) {
		return m.slot, m.tr == nil
	}); err != nil {
		return nil, err
	}
	// Phase 2b — nothing can fail now: buffer the rows.
	tt := txn.table(t)
	for _, m := range mods {
		if m.tr != nil {
			m.tr.row = m.newRow
			continue
		}
		tt.mods[m.slot] = &txnRow{row: m.newRow}
	}
	return &Result{Affected: len(mods)}, nil
}

// lockSlots claims the base-table slots that sel reports for each element,
// first-writer-wins. On conflict it releases the locks acquired by this
// call and returns a WriteConflictError; locks the transaction held before
// the call stay held.
func lockSlots[T any](txn *Txn, t *Table, items []T, sel func(T) (int, bool)) error {
	db := txn.db
	var acquired []int
	for _, it := range items {
		slot, lock := sel(it)
		if !lock {
			continue
		}
		ok, fresh := db.locks.tryLock(t, slot, txn)
		if !ok {
			for _, s := range acquired {
				db.locks.unlock(t, s, txn)
			}
			return &WriteConflictError{Table: t.Name, Slot: slot}
		}
		if fresh {
			acquired = append(acquired, slot)
		}
	}
	return nil
}

func (txn *Txn) execDelete(s *sqlparser.DeleteStmt, params []Value) (*Result, error) {
	db := txn.db
	defer db.trackBusy(time.Now())
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("sqldb: no table %s", s.Table)
	}
	mt, insAt := txn.mergedTable(t)
	sc := &scope{}
	sc.addTable("", mt)
	slots, err := db.matchSlots(mt, sc, s.Where, params)
	if err != nil {
		return nil, err
	}
	// Same two phases as UPDATE: claim every lock (conflicts release just
	// this statement's acquisitions), then buffer.
	if err := lockSlots(txn, t, slots, func(slot int) (int, bool) {
		_, pending := insAt[slot]
		return slot, !pending
	}); err != nil {
		return nil, err
	}
	tt := txn.table(t)
	affected := 0
	for _, slot := range slots {
		if tr, pending := insAt[slot]; pending {
			tr.deleted = true
			affected++
			continue
		}
		tt.mods[slot] = &txnRow{deleted: true}
		affected++
	}
	return &Result{Affected: affected}, nil
}

//
// Commit / rollback
//

// commitLocked applies the transaction under the database write lock, then
// makes its WAL batch durable via group commit off the lock. On a
// constraint violation during apply the transaction is rolled back in full
// and the error reports that. Callers hold s.mu.
func (s *Session) commitLocked() (*Result, error) {
	txn := s.txn
	if txn == nil {
		return nil, fmt.Errorf("sqldb: COMMIT outside a transaction")
	}
	db := s.db
	defer db.trackBusy(time.Now())
	if db.wal != nil {
		// Announce before taking the lock, so a flushing leader holds its
		// cohort open for this transaction's batch.
		db.wal.announce()
		defer db.wal.retire()
	}

	db.mu.Lock()
	ops, err := txn.applyLocked()
	if err != nil {
		var cohort *walCohort
		if _, faulted := err.(*PageFaultError); faulted && db.wal != nil && len(ops) > 0 {
			// A page fault aborted the apply midway: the effects before the
			// fault are in the shared tables and cannot be cleanly reverted
			// (reverting may fault again). Commit their redo so the log
			// tracks memory, and surface the fault as the primary error.
			db.walSeq++
			cohort = db.wal.enqueue(db.walSeq, ops)
		}
		txn.releaseLocked()
		db.mu.Unlock()
		s.txn = nil
		if cohort != nil {
			if werr := db.wal.waitFlush(cohort); werr != nil {
				return nil, &DurabilityError{Err: werr}
			}
			return nil, err
		}
		return nil, fmt.Errorf("sqldb: COMMIT failed, transaction rolled back: %w", err)
	}
	if txn.meta != nil {
		if db.wal != nil {
			ops = appendMetaOp(ops, txn.meta)
		}
		db.meta = append([]byte(nil), txn.meta...)
		atomic.AddUint64(&db.metaVer, 1)
	}
	var cohort *walCohort
	if db.wal != nil && len(ops) > 0 {
		db.walSeq++
		// Enqueue while still holding db.mu: the WAL file must stay in
		// sequence (= dependency) order. The fsync happens off the lock.
		cohort = db.wal.enqueue(db.walSeq, ops)
	}
	txn.releaseLocked()
	db.mu.Unlock()
	s.txn = nil

	if cohort != nil {
		if werr := db.wal.waitFlush(cohort); werr != nil {
			// The in-memory state committed; only durability failed.
			return &Result{}, &DurabilityError{Err: werr}
		}
		db.maybeAutoCheckpoint()
		db.cachePressure()
	}
	return &Result{}, nil
}

// rollbackLocked discards the transaction and releases its slot locks.
// Callers hold s.mu.
func (s *Session) rollbackLocked() {
	txn := s.txn
	s.txn = nil
	db := s.db
	db.mu.Lock()
	txn.releaseLocked()
	db.mu.Unlock()
}

// releaseLocked frees the transaction's slot locks and deregisters it.
// Callers hold db.mu.
func (txn *Txn) releaseLocked() {
	for _, tt := range txn.tables {
		for slot := range tt.mods {
			txn.db.locks.unlock(tt.t, slot, txn)
		}
	}
	delete(txn.db.openTxns, txn)
}

// applyLocked installs the write buffer into the shared tables and returns
// the encoded redo ops, in a deterministic order (sorted table names;
// deletes, then modifications, then inserts — so a transaction that deletes
// a unique key and re-inserts it commits cleanly). On constraint violation
// everything already applied is undone and an error returned; the shared
// state is then exactly as before the commit attempt. Callers hold db.mu.
func (txn *Txn) applyLocked() (ops []byte, err error) {
	// A paged table can fail to fault a page in mid-apply. No revert is
	// attempted (reverting may fault again): the effects encoded in ops so
	// far are in the shared tables, and the caller commits their redo so the
	// log stays in lockstep with memory.
	defer catchPageFault(&err)
	type undoRec struct {
		kind int // 0 = re-place deleted row, 1 = revert cell, 2 = remove inserted row
		t    *Table
		slot int
		pos  int
		row  []Value
		old  Value
	}
	var undo []undoRec
	revert := func() {
		for i := len(undo) - 1; i >= 0; i-- {
			u := undo[i]
			switch u.kind {
			case 0:
				u.t.placeRow(u.slot, u.row) //nolint:errcheck // slot was just freed
			case 1:
				u.t.updateCellUnchecked(u.slot, u.pos, u.old)
			case 2:
				u.t.deleteRow(u.slot)
			}
		}
	}

	names := make([]string, 0, len(txn.tables))
	for n := range txn.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		tt := txn.tables[name]
		if len(tt.mods) == 0 && len(tt.ins) == 0 {
			continue // touched but nothing buffered (zero-row statements)
		}
		t := tt.t
		if txn.db.tables[name] != t {
			revert()
			return nil, fmt.Errorf("sqldb: table %s was dropped during the transaction", name)
		}
		slots := make([]int, 0, len(tt.mods))
		for slot := range tt.mods {
			slots = append(slots, slot)
		}
		sort.Ints(slots)
		// Deletes first.
		for _, slot := range slots {
			m := tt.mods[slot]
			if !m.deleted {
				continue
			}
			if row := t.deleteRow(slot); row != nil {
				undo = append(undo, undoRec{kind: 0, t: t, slot: slot, row: row})
				if txn.db.wal != nil {
					ops = appendDeleteOp(ops, t.Name, slot)
				}
			}
		}
		// Then cell modifications (only cells that changed).
		for _, slot := range slots {
			m := tt.mods[slot]
			if m.deleted {
				continue
			}
			row := t.rowAt(slot)
			if row == nil {
				continue // deleted by this txn via an earlier mod? cannot happen: one mod per slot
			}
			for pos := range m.row {
				old := row[pos]
				if equalValue(old, m.row[pos]) {
					continue
				}
				if cerr := t.checkUpdateUnique(slot, pos, m.row[pos]); cerr != nil {
					revert()
					return nil, cerr
				}
				t.updateCellUnchecked(slot, pos, m.row[pos])
				undo = append(undo, undoRec{kind: 1, t: t, slot: slot, pos: pos, old: old})
				if txn.db.wal != nil {
					ops = appendUpdateOp(ops, t.Name, slot, pos, m.row[pos])
				}
			}
		}
		// Inserts last.
		for _, tr := range tt.ins {
			if tr.deleted {
				continue
			}
			slot, ierr := t.insertRow(tr.row)
			if ierr != nil {
				revert()
				return nil, ierr
			}
			undo = append(undo, undoRec{kind: 2, t: t, slot: slot})
			if txn.db.wal != nil {
				ops = appendInsertOp(ops, t.Name, slot, tr.row)
			}
		}
	}
	return ops, nil
}

// equalValue compares two values for exact (non-coercing) equality.
func equalValue(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	return a.Key() == b.Key()
}

// insertPositions maps an INSERT's column list (or the full schema) to
// column positions.
func insertPositions(t *Table, s *sqlparser.InsertStmt) ([]int, error) {
	if len(s.Columns) == 0 {
		positions := make([]int, len(t.Cols))
		for i := range t.Cols {
			positions[i] = i
		}
		return positions, nil
	}
	positions := make([]int, len(s.Columns))
	for i, name := range s.Columns {
		pos := t.ColumnIndex(name)
		if pos < 0 {
			return nil, fmt.Errorf("sqldb: no column %s.%s", t.Name, name)
		}
		positions[i] = pos
	}
	return positions, nil
}
