package proxy

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sqldb"
)

func mustSess(t *testing.T, s *Session, sql string, params ...sqldb.Value) *sqldb.Result {
	t.Helper()
	res, err := s.Execute(sql, params...)
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	return res
}

// TestProxySessionsConcurrentTxns: two proxy sessions hold open
// transactions over encrypted tables at the same time; isolation and
// decryption both hold.
func TestProxySessionsConcurrentTxns(t *testing.T) {
	p := newTestProxy(t)
	mustExec(t, p, "CREATE TABLE acct (id INT PRIMARY KEY, owner TEXT, bal INT)")
	mustExec(t, p, "INSERT INTO acct (id, owner, bal) VALUES (1, 'ann', 100), (2, 'bob', 200)")
	// Pre-adjust the onions the transactions will need, so the concurrent
	// phase runs in the trained steady state (the paper's assumption).
	mustExec(t, p, "SELECT bal FROM acct WHERE id = 1")

	a, b := p.NewSession(), p.NewSession()
	defer a.Close()
	defer b.Close()

	mustSess(t, a, "BEGIN")
	mustSess(t, b, "BEGIN")
	mustSess(t, a, "UPDATE acct SET bal = 150 WHERE id = 1")
	mustSess(t, b, "UPDATE acct SET bal = 250 WHERE id = 2")

	// Read-your-writes through decryption; no cross-session leakage.
	if res := mustSess(t, a, "SELECT bal FROM acct WHERE id = 1"); res.Rows[0][0].I != 150 {
		t.Fatalf("a sees bal = %v, want its own 150", res.Rows[0][0])
	}
	if res := mustSess(t, a, "SELECT bal FROM acct WHERE id = 2"); res.Rows[0][0].I != 200 {
		t.Fatalf("a sees b's uncommitted write: %v", res.Rows[0][0])
	}
	mustSess(t, a, "COMMIT")
	mustSess(t, b, "COMMIT")

	res := mustExec(t, p, "SELECT SUM(bal) FROM acct")
	if res.Rows[0][0].I != 400 {
		t.Fatalf("sum = %v, want 400", res.Rows[0][0])
	}
}

// TestProxySessionWriteConflict: first-writer-wins surfaces through the
// proxy, and the losing session recovers with ROLLBACK.
func TestProxySessionWriteConflict(t *testing.T) {
	p := newTestProxy(t)
	mustExec(t, p, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, p, "INSERT INTO t (id, v) VALUES (1, 10)")
	mustExec(t, p, "SELECT v FROM t WHERE id = 1") // train DET

	a, b := p.NewSession(), p.NewSession()
	defer a.Close()
	defer b.Close()
	mustSess(t, a, "BEGIN")
	mustSess(t, b, "BEGIN")
	mustSess(t, a, "UPDATE t SET v = 11 WHERE id = 1")
	var wc *sqldb.WriteConflictError
	if _, err := b.Execute("UPDATE t SET v = 22 WHERE id = 1"); !errors.As(err, &wc) {
		t.Fatalf("err = %v, want WriteConflictError", err)
	}
	mustSess(t, b, "ROLLBACK")
	mustSess(t, a, "COMMIT")
	if res := mustExec(t, p, "SELECT v FROM t WHERE id = 1"); res.Rows[0][0].I != 11 {
		t.Fatalf("v = %v, want 11", res.Rows[0][0])
	}
}

// TestAdjustmentConflictsWithOpenTxn: an onion adjustment on a table an
// open transaction has written fails with a retryable error, and succeeds
// once the transaction ends. This protects the layer/ciphertext agreement:
// the transaction's buffered rows were encrypted at the old layer.
func TestAdjustmentConflictsWithOpenTxn(t *testing.T) {
	p := newTestProxy(t)
	mustExec(t, p, "CREATE TABLE t (k INT, v INT)")
	mustExec(t, p, "INSERT INTO t (k, v) VALUES (1, 10)")

	a, b := p.NewSession(), p.NewSession()
	defer a.Close()
	defer b.Close()
	mustSess(t, a, "BEGIN")
	mustSess(t, a, "INSERT INTO t (k, v) VALUES (2, 20)")

	// b's equality query needs a DET adjustment on t — blocked while a's
	// transaction has buffered rows for it.
	_, err := b.Execute("SELECT v FROM t WHERE k = ?", sqldb.Int(1))
	if err == nil || !strings.Contains(err.Error(), "open transaction") {
		t.Fatalf("adjustment during open txn: err = %v, want conflict", err)
	}

	mustSess(t, a, "COMMIT")
	res := mustSess(t, b, "SELECT v FROM t WHERE k = ?", sqldb.Int(1))
	if len(res.Rows) != 1 || res.Rows[0][0].I != 10 {
		t.Fatalf("retry after commit: %v", res.Rows)
	}
	// And a's committed row decrypts at the new layer too.
	res = mustSess(t, b, "SELECT v FROM t WHERE k = ?", sqldb.Int(2))
	if len(res.Rows) != 1 || res.Rows[0][0].I != 20 {
		t.Fatalf("row committed before adjustment: %v", res.Rows)
	}
}

// TestProxySessionCloseRollsBack: a session dropped mid-transaction (the
// disconnect path) leaves no buffered writes and no locks.
func TestProxySessionCloseRollsBack(t *testing.T) {
	p := newTestProxy(t)
	mustExec(t, p, "CREATE TABLE t (k INT, v INT)")
	mustExec(t, p, "INSERT INTO t (k, v) VALUES (1, 10)")
	mustExec(t, p, "SELECT v FROM t WHERE k = 1") // train

	s := p.NewSession()
	mustSess(t, s, "BEGIN")
	mustSess(t, s, "INSERT INTO t (k, v) VALUES (2, 20)")
	mustSess(t, s, "UPDATE t SET v = 99 WHERE k = 1")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	res := mustExec(t, p, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("count = %v, want 1 (insert discarded)", res.Rows[0][0])
	}
	res = mustExec(t, p, "SELECT v FROM t WHERE k = 1")
	if res.Rows[0][0].I != 10 {
		t.Fatalf("v = %v, want 10 (update discarded)", res.Rows[0][0])
	}
	// Lock released: a fresh write succeeds immediately.
	mustExec(t, p, "UPDATE t SET v = 11 WHERE k = 1")
}

// TestProxySessionStress is the proxy-level serializability check: K
// sessions run transfer transactions over an encrypted accounts table with
// single-statement read-modify-writes, aborting on conflict. The encrypted
// total must be exactly preserved and every committed marker present.
func TestProxySessionStress(t *testing.T) {
	const (
		sessions = 6
		accounts = 4
		txnsEach = 12
		initial  = 1000
	)
	p := newTestProxy(t)
	mustExec(t, p, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
	mustExec(t, p, "CREATE TABLE mark (sess INT, n INT)")
	for i := 0; i < accounts; i++ {
		mustExec(t, p, fmt.Sprintf("INSERT INTO acct (id, bal) VALUES (%d, %d)", i, initial))
	}
	// Train every onion the storm will need (id equality, bal updates).
	mustExec(t, p, "SELECT bal FROM acct WHERE id = 0")
	mustExec(t, p, "SELECT n FROM mark WHERE sess = 0")

	var commits int64
	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)*131 + 7))
			s := p.NewSession()
			defer s.Close()
			for i := 0; i < txnsEach; i++ {
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				amt := rng.Intn(9) + 1
				if _, err := s.Execute("BEGIN"); err != nil {
					errCh <- err
					return
				}
				ok := true
				for _, q := range []string{
					fmt.Sprintf("UPDATE acct SET bal = bal - %d WHERE id = %d", amt, from),
					fmt.Sprintf("UPDATE acct SET bal = bal + %d WHERE id = %d", amt, to),
					fmt.Sprintf("INSERT INTO mark (sess, n) VALUES (%d, %d)", g, i),
				} {
					if _, err := s.Execute(q); err != nil {
						var wc *sqldb.WriteConflictError
						if !errors.As(err, &wc) {
							errCh <- fmt.Errorf("%s: %v", q, err)
							return
						}
						if _, rerr := s.Execute("ROLLBACK"); rerr != nil {
							errCh <- rerr
							return
						}
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				if _, err := s.Execute("COMMIT"); err != nil {
					errCh <- err
					return
				}
				atomic.AddInt64(&commits, 1)
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	res := mustExec(t, p, "SELECT SUM(bal) FROM acct")
	if res.Rows[0][0].I != accounts*initial {
		t.Fatalf("SUM(bal) = %v, want %d: committed transfers interleaved", res.Rows[0][0], accounts*initial)
	}
	res = mustExec(t, p, "SELECT COUNT(*) FROM mark")
	if res.Rows[0][0].I != commits {
		t.Fatalf("markers = %v, commits = %d: partial transaction visible", res.Rows[0][0], commits)
	}
}

// TestProxyDurableSessionTxn: a transaction committed through a proxy
// session on a durable stack survives a restart with its onion metadata.
func TestProxyDurableSessionTxn(t *testing.T) {
	dir := t.TempDir()
	open := func() (*sqldb.DB, *Proxy) {
		db, err := sqldb.Open(dir, sqldb.DurabilityOptions{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(db, Options{HOMBits: 256, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return db, p
	}
	db, p := open()
	mustExec(t, p, "CREATE TABLE t (k INT, v INT)")
	s := p.NewSession()
	mustSess(t, s, "BEGIN")
	mustSess(t, s, "INSERT INTO t (k, v) VALUES (1, 10), (2, 20)")
	mustSess(t, s, "COMMIT")
	mustSess(t, s, "BEGIN")
	mustSess(t, s, "INSERT INTO t (k, v) VALUES (3, 30)")
	mustSess(t, s, "ROLLBACK")
	s.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, p2 := open()
	defer db2.Close()
	res := mustExec(t, p2, "SELECT SUM(v) FROM t")
	if res.Rows[0][0].I != 30 {
		t.Fatalf("recovered sum = %v, want 30", res.Rows[0][0])
	}
	res = mustExec(t, p2, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].I != 2 {
		t.Fatalf("recovered rows = %v, want 2", res.Rows[0][0])
	}
}

// TestCommitReSealsMetadata: a transaction that buffered a sealed-metadata
// blob at statement time must not commit that (possibly stale) blob if an
// onion adjustment committed newer metadata while the transaction was
// open — the commit re-seals the current state. Otherwise recovery would
// load pre-adjustment layer pointers over post-adjustment ciphertexts.
func TestCommitReSealsMetadata(t *testing.T) {
	dir := t.TempDir()
	open := func() (*sqldb.DB, *Proxy) {
		db, err := sqldb.Open(dir, sqldb.DurabilityOptions{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(db, Options{HOMBits: 256, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return db, p
	}
	db, p := open()
	mustExec(t, p, "CREATE TABLE t (k INT, n INT)")
	mustExec(t, p, "CREATE TABLE u (k INT, v INT)")
	mustExec(t, p, "INSERT INTO t (k, n) VALUES (1, 5)")
	mustExec(t, p, "INSERT INTO u (k, v) VALUES (7, 70)")

	a, b := p.NewSession(), p.NewSession()
	mustSess(t, a, "BEGIN")
	// HOM increment: seals a statement-time blob into A's transaction
	// (staleness flags for t) — at this instant u's onions are still RND.
	mustSess(t, a, "UPDATE t SET n = n + 1 WHERE k = 1")
	// B adjusts u (RND -> DET) while A's transaction is open; the
	// adjustment commits metadata recording u at DET.
	res := mustSess(t, b, "SELECT v FROM u WHERE k = ?", sqldb.Int(7))
	if len(res.Rows) != 1 || res.Rows[0][0].I != 70 {
		t.Fatalf("adjusting query: %v", res.Rows)
	}
	// A commits: the blob written with its batch must reflect u at DET.
	mustSess(t, a, "COMMIT")
	a.Close()
	b.Close()
	db.Close()

	// Restart: if A's stale statement-time blob won, the proxy now thinks
	// u's Eq onion is still RND and re-strips a layer that is gone.
	db2, p2 := open()
	defer db2.Close()
	res, err := p2.Execute("SELECT v FROM u WHERE k = ?", sqldb.Int(7))
	if err != nil {
		t.Fatalf("equality on u after restart: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 70 {
		t.Fatalf("u after restart: %v", res.Rows)
	}
	if adj := p2.Stats().OnionAdjustments; adj != 0 {
		t.Fatalf("restarted proxy re-adjusted %d times; metadata rolled back", adj)
	}
	// And A's committed increment survived.
	res = mustExec(t, p2, "SELECT n FROM t WHERE k = 1")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 6 {
		t.Fatalf("t.n after restart: %v", res.Rows)
	}
}

// TestProxySessionsConcurrentJoin: two sessions run the same join at the
// same time over a transitivity group whose union-find path is longer than
// one hop. Deciding that the join needs no adjustment happens under the
// proxy's read lock, so finding the group root must not write; run with
// -race.
func TestProxySessionsConcurrentJoin(t *testing.T) {
	p := newTestProxy(t)
	for _, tb := range []string{"ja", "jb", "jc"} {
		mustExec(t, p, "CREATE TABLE "+tb+" (v TEXT)")
		mustExec(t, p, "INSERT INTO "+tb+" (v) VALUES ('x'), ('y'), ('z')")
	}
	// jb-jc roots the pair at jb; ja-jb then re-roots jb at ja, leaving
	// jc -> jb -> ja.
	mustExec(t, p, "SELECT COUNT(*) FROM jb JOIN jc ON jb.v = jc.v")
	mustExec(t, p, "SELECT COUNT(*) FROM ja JOIN jb ON ja.v = jb.v")
	const join = "SELECT COUNT(*) FROM ja JOIN jc ON ja.v = jc.v"
	if jc := p.Table("jc").Col("v"); jc.joinGroup.joinGroup == jc.joinGroup {
		t.Fatal("setup did not leave a two-hop path from jc to its group root")
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		s := p.NewSession()
		defer s.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				res, err := s.Execute(join)
				if err == nil && res.Rows[0][0].I != 3 {
					err = fmt.Errorf("join count = %v, want 3", res.Rows[0][0])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
