package sharded

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/sqldb"
	"repro/internal/store"
	"repro/internal/store/single"
)

const unionJoin = "SELECT t.id, t.val, t2.id, t2.ref FROM t, t2 WHERE t.id = t2.ref"

// openPaged opens a durable sharded engine whose shards page rows behind a
// one-byte cache: every commit checkpoints and evicts every clean page, so
// reads fault nearly every page they touch.
func openPaged(t *testing.T, shards int) *Engine {
	t.Helper()
	e, err := Open(t.TempDir(), shards, sqldb.DurabilityOptions{NoFsync: true, Paged: true, CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestCrossShardEquivalencePaged runs the equivalence workload against
// paged shards with a tiny cache, so the cross-shard join reads borrowed
// pages that must be faulted through their shard's pager.
func TestCrossShardEquivalencePaged(t *testing.T) {
	for _, shards := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dut := openPaged(t, shards)
			runEquivalence(t, single.New(sqldb.New()), dut)

			// A commit evicts what the workload's last reads left resident;
			// the join must then fault shard pages through the union.
			mustExec(t, dut, "INSERT INTO t2 (id, ref) VALUES (1000000, 1)")
			misses := dut.Stats().Cache.Misses
			mustExec(t, dut, unionJoin)
			if dut.Stats().Cache.Misses == misses {
				t.Fatal("cross-shard join faulted no page")
			}
		})
	}
}

// seedJoin creates t and t2 on each engine and fills them: t2.ref points
// at t.id, some rows twice, some not at all.
func seedJoin(t *testing.T, engines ...store.Engine) {
	t.Helper()
	for _, e := range engines {
		mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, grp TEXT, val INT)")
		mustExec(t, e, "CREATE TABLE t2 (id INT PRIMARY KEY, ref INT)")
		for i := 1; i <= 40; i++ {
			mustExec(t, e, "INSERT INTO t (id, grp, val) VALUES (?, ?, ?)",
				sqldb.Int(int64(i)), sqldb.Text(fmt.Sprintf("g%d", i%4)), sqldb.Int(int64(i*10)))
			mustExec(t, e, "INSERT INTO t2 (id, ref) VALUES (?, ?)",
				sqldb.Int(int64(100+i)), sqldb.Int(int64(1+(i*7)%45)))
		}
	}
}

// TestCrossShardJoinCountsHashJoins: the union fallback's hash join runs on
// the coordinator, and Stats folds the coordinator's counters in.
func TestCrossShardJoinCountsHashJoins(t *testing.T) {
	e := New(4)
	seedJoin(t, e)
	before := e.Stats()
	mustExec(t, e, unionJoin)
	after := e.Stats()
	if after.Plan.HashJoins <= before.Plan.HashJoins {
		t.Fatalf("HashJoins %d -> %d: the cross-shard join's plan was not counted", before.Plan.HashJoins, after.Plan.HashJoins)
	}
	if after.Plan.Compiled <= before.Plan.Compiled {
		t.Fatalf("Compiled %d -> %d", before.Plan.Compiled, after.Plan.Compiled)
	}
	if after.BusyNanos <= before.BusyNanos {
		t.Fatalf("BusyNanos %d -> %d: coordinator time not counted", before.BusyNanos, after.BusyNanos)
	}
}

// TestCrossShardJoinSeesPinnedTxn: inside a transaction pinned to one
// shard, a cross-shard join and COUNT(DISTINCT) see the transaction's
// buffered INSERT, UPDATE and DELETE; another connection does not, and
// ROLLBACK discards them. A single-node engine running the same
// statements is the oracle.
func TestCrossShardJoinSeesPinnedTxn(t *testing.T) {
	e := New(3)
	ref := single.New(sqldb.New())
	seedJoin(t, e, ref)

	// Every key the transaction writes lives on one shard.
	pin := e.ShardOf("t", sqldb.Int(1))
	var onPin []int64
	for i := int64(1); len(onPin) < 5; i++ {
		if e.ShardOf("t", sqldb.Int(i)) == pin {
			onPin = append(onPin, i)
		}
	}
	var fresh []int64 // unused keys on the pinned shard
	for i := int64(500); len(fresh) < 2; i++ {
		if e.ShardOf("t", sqldb.Int(i)) == pin {
			fresh = append(fresh, i)
		}
	}
	writes := []struct {
		sql    string
		params []sqldb.Value
	}{
		{"INSERT INTO t (id, grp, val) VALUES (?, 'fresh', 7)", []sqldb.Value{sqldb.Int(fresh[0])}},
		{"INSERT INTO t2 (id, ref) VALUES (?, ?)", []sqldb.Value{sqldb.Int(fresh[1]), sqldb.Int(fresh[0])}},
		{"UPDATE t SET val = 999 WHERE id = ?", []sqldb.Value{sqldb.Int(onPin[1])}},
		{"DELETE FROM t WHERE id = ?", []sqldb.Value{sqldb.Int(onPin[2])}},
	}
	queries := []string{unionJoin, "SELECT COUNT(DISTINCT grp) FROM t"}

	check := func(what string, dc, rc store.Conn) {
		t.Helper()
		for _, q := range queries {
			compareResults(t, what+": "+q, mustExec(t, rc, q), mustExec(t, dc, q), false)
		}
	}
	dc, rc := e.NewConn(), ref.NewConn()
	defer dc.Close()
	defer rc.Close()
	mustExec(t, dc, "BEGIN")
	mustExec(t, rc, "BEGIN")
	for _, w := range writes {
		mustExec(t, dc, w.sql, w.params...)
		mustExec(t, rc, w.sql, w.params...)
	}
	check("inside the transaction", dc, rc)

	res := mustExec(t, dc, "SELECT t.val, t2.id FROM t, t2 WHERE t.id = t2.ref AND t.id = ?", sqldb.Int(fresh[0]))
	if len(res.Rows) != 1 || res.Rows[0][0].I != 7 || res.Rows[0][1].I != fresh[1] {
		t.Fatalf("join does not see the buffered inserts: %v", res.Rows)
	}

	other, otherRef := e.NewConn(), ref.NewConn()
	defer other.Close()
	defer otherRef.Close()
	check("another connection", other, otherRef)

	mustExec(t, dc, "ROLLBACK")
	mustExec(t, rc, "ROLLBACK")
	check("after ROLLBACK", dc, rc)
}

// TestCrossShardJoinUnderWrites runs cross-shard joins against concurrent
// single-shard writers and checkpoints on paged shards (run with -race):
// no statement fails, none deadlocks, every join row satisfies the join,
// and once the load stops the results match a single-node oracle that ran
// the same writes serially.
func TestCrossShardJoinUnderWrites(t *testing.T) {
	const (
		writers = 3
		opsEach = 120
		readers = 2
	)
	e := openPaged(t, 4)
	ref := single.New(sqldb.New())
	seedJoin(t, e, ref)

	type write struct {
		sql    string
		params []sqldb.Value
	}
	// Each writer owns the keys congruent to its number, so the final
	// state does not depend on how the writers interleave.
	scripts := make([][]write, writers)
	for w := range scripts {
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < opsEach; i++ {
			id := int64(1000 + writers*rng.Intn(60) + w)
			switch rng.Intn(4) {
			case 0:
				scripts[w] = append(scripts[w], write{"INSERT INTO t (id, grp, val) VALUES (?, ?, ?)",
					[]sqldb.Value{sqldb.Int(id), sqldb.Text(fmt.Sprintf("w%d", rng.Intn(5))), sqldb.Int(int64(rng.Intn(100)))}})
			case 1:
				scripts[w] = append(scripts[w], write{"INSERT INTO t2 (id, ref) VALUES (?, ?)",
					[]sqldb.Value{sqldb.Int(id), sqldb.Int(int64(1000 + rng.Intn(60*writers)))}})
			case 2:
				scripts[w] = append(scripts[w], write{"UPDATE t SET val = val + 1 WHERE id = ?", []sqldb.Value{sqldb.Int(id)}})
			default:
				scripts[w] = append(scripts[w], write{"DELETE FROM t WHERE id = ?", []sqldb.Value{sqldb.Int(id)}})
			}
		}
	}

	done := make(chan struct{})
	errs := make(chan error, writers+readers+1)
	go func() {
		defer close(done)
		var load, rest sync.WaitGroup
		stop := make(chan struct{})
		for w := range scripts {
			load.Add(1)
			go func(script []write) {
				defer load.Done()
				c := e.NewConn()
				defer c.Close()
				for _, op := range script {
					// A duplicate key is the script's own doing and is
					// refused the same way by the oracle.
					c.ExecSQL(op.sql, op.params...) //nolint:errcheck
				}
			}(scripts[w])
		}
		rest.Add(1)
		go func() {
			defer rest.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := e.Checkpoint(); err != nil {
					errs <- err
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
		for r := 0; r < readers; r++ {
			rest.Add(1)
			go func() {
				defer rest.Done()
				c := e.NewConn()
				defer c.Close()
				for {
					select {
					case <-stop:
						return
					default:
					}
					res, err := c.ExecSQL(unionJoin)
					if err != nil {
						errs <- err
						return
					}
					for _, row := range res.Rows {
						if row[0].I != row[3].I {
							errs <- fmt.Errorf("join row %v does not satisfy t.id = t2.ref", row)
							return
						}
					}
				}
			}()
		}
		load.Wait()
		close(stop)
		rest.Wait()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("cross-shard joins under writers and checkpoints did not finish: deadlock?")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for _, script := range scripts {
		for _, op := range script {
			ref.ExecSQL(op.sql, op.params...) //nolint:errcheck // same refusals as above
		}
	}
	for _, q := range []string{unionJoin, "SELECT COUNT(DISTINCT grp) FROM t", "SELECT * FROM t", "SELECT * FROM t2"} {
		compareResults(t, q, mustExec(t, ref, q), mustExec(t, e, q), false)
	}
}
