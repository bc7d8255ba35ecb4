package sqldb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// pagedTestOpts returns durability options that force the buffer cache to
// thrash: the budget is a handful of pages, so any workload touching more
// rows than that evicts and faults constantly.
func pagedTestOpts(cacheBytes int64) DurabilityOptions {
	return DurabilityOptions{Paged: true, CacheBytes: cacheBytes, CheckpointBytes: -1}
}

// TestPagedRecoveryBasics is TestDurableRecoveryBasics for the paged
// layout: the whole redo surface plus an incremental checkpoint in the
// middle, crashed and recovered from MANIFEST + segments + WAL tail.
func TestPagedRecoveryBasics(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, pagedTestOpts(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	if !db.Paged() {
		t.Fatal("Paged:true did not produce a paged database")
	}
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT, score INT)")
	mustExec(t, db, "CREATE INDEX t_score ON t (score)")
	mustExec(t, db, "INSERT INTO t (id, name, score) VALUES (1, 'alice', 10), (2, 'bob', 20), (3, 'carol', 30)")
	mustExec(t, db, "UPDATE t SET score = 25 WHERE id = 2")
	mustExec(t, db, "DELETE FROM t WHERE id = 1")

	// Checkpoint mid-history so recovery exercises manifest + WAL replay,
	// not just one of them.
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("checkpoint left no MANIFEST: %v", err)
	}

	mustExec(t, db, "BEGIN")
	mustExec(t, db, "INSERT INTO t (id, name, score) VALUES (4, 'dave', 40)")
	mustExec(t, db, "COMMIT")
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "INSERT INTO t (id, name, score) VALUES (5, 'eve', 50)")
	mustExec(t, db, "DELETE FROM t WHERE id = 4")
	mustExec(t, db, "ROLLBACK")
	mustExec(t, db, "CREATE TABLE gone (x INT)")
	mustExec(t, db, "DROP TABLE gone")

	want := dump(t, db)
	db.Close()

	// Reopen WITHOUT the Paged flag: the manifest must win layout
	// detection on its own.
	db2, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !db2.Paged() {
		t.Fatal("manifest layout not auto-detected on reopen")
	}
	if got := dump(t, db2); got != want {
		t.Fatalf("recovered state differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
	res := mustExec(t, db2, "SELECT name FROM t WHERE score > 20 ORDER BY score")
	if len(res.Rows) != 3 {
		t.Fatalf("range after recovery: got %d rows, want 3", len(res.Rows))
	}
	if _, err := db2.ExecSQL("INSERT INTO t (id, name, score) VALUES (2, 'dup', 0)"); err == nil {
		t.Fatal("recovered PRIMARY KEY index did not reject a duplicate")
	}
}

// TestPagedChurnProperty drives the same random insert/update/delete/
// range-scan/transaction mix against a paged database with a cache budget
// smaller than one page (so every statement faults and evicts) and a
// resident durable oracle, crashing both at random points and requiring
// row-by-row and StateDigest equality throughout.
//
// Digest equality across a crash needs both sides to rebuild from the same
// checkpoint sequence point (slot/free-list reconstruction depends on it),
// so the oracle checkpoints whenever the paged side does — including the
// synchronous checkpoints cache pressure forces.
func TestPagedChurnProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dirP, dirO := t.TempDir(), t.TempDir()
	paged, err := Open(dirP, pagedTestOpts(24<<10))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Open(dirO, DurabilityOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}

	var seenCkpts int64
	syncCkpt := func() {
		t.Helper()
		if n := paged.WALStats().Checkpoints; n > seenCkpts {
			if err := oracle.Checkpoint(); err != nil {
				t.Fatalf("oracle lockstep checkpoint: %v", err)
			}
			seenCkpts = n
		}
	}
	both := func(sql string) {
		t.Helper()
		_, errP := paged.ExecSQL(sql)
		_, errO := oracle.ExecSQL(sql)
		if (errP == nil) != (errO == nil) {
			t.Fatalf("divergence on %q: paged=%v oracle=%v", sql, errP, errO)
		}
		syncCkpt()
	}
	compareRange := func(lo, hi int) {
		t.Helper()
		q := fmt.Sprintf("SELECT id, name FROM kv WHERE id > %d AND id < %d ORDER BY id", lo, hi)
		rp, errP := paged.ExecSQL(q)
		ro, errO := oracle.ExecSQL(q)
		if errP != nil || errO != nil {
			t.Fatalf("range scan: paged=%v oracle=%v", errP, errO)
		}
		if len(rp.Rows) != len(ro.Rows) {
			t.Fatalf("range scan rows: paged=%d oracle=%d", len(rp.Rows), len(ro.Rows))
		}
		for i := range rp.Rows {
			for j := range rp.Rows[i] {
				if rp.Rows[i][j].Key() != ro.Rows[i][j].Key() {
					t.Fatalf("range scan row %d col %d: %s vs %s", i, j, rp.Rows[i][j].Key(), ro.Rows[i][j].Key())
				}
			}
		}
	}

	both("CREATE TABLE kv (id INT PRIMARY KEY, name TEXT, n INT)")
	both("CREATE INDEX kv_id ON kv (id)")

	pad := strings.Repeat("x", 60)
	// Bulk-load enough rows that the live pages dwarf both the cache budget
	// and the pinned L1 tier — churn below must fault and evict constantly.
	const idSpace = 3000
	for base := 0; base < idSpace; base += 100 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO kv (id, name, n) VALUES ")
		for i := 0; i < 100; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'v%d-%s', %d)", base+i, base+i, pad, base+i)
		}
		both(sb.String())
	}

	const steps = 500
	for step := 0; step < steps; step++ {
		id := rng.Intn(idSpace)
		switch r := rng.Intn(100); {
		case r < 40:
			both(fmt.Sprintf("INSERT INTO kv (id, name, n) VALUES (%d, 'v%d-%s', %d)", id, id, pad, step))
		case r < 60:
			both(fmt.Sprintf("UPDATE kv SET name = 'u%d-%s', n = %d WHERE id = %d", step, pad, step, id))
		case r < 72:
			both(fmt.Sprintf("DELETE FROM kv WHERE id = %d", id))
		case r < 82:
			lo := rng.Intn(idSpace - 200)
			compareRange(lo, lo+rng.Intn(150)+1)
		case r < 92:
			both("BEGIN")
			both(fmt.Sprintf("INSERT INTO kv (id, name, n) VALUES (%d, 'tx%d', %d)", rng.Intn(idSpace), step, step))
			both(fmt.Sprintf("UPDATE kv SET n = %d WHERE id = %d", -step, id))
			if rng.Intn(2) == 0 {
				both("COMMIT")
			} else {
				both("ROLLBACK")
			}
		default:
			if err := paged.Checkpoint(); err != nil {
				t.Fatalf("paged checkpoint: %v", err)
			}
			syncCkpt()
		}

		if step%7 == 0 {
			if dp, do := paged.StateDigest(), oracle.StateDigest(); dp != do {
				t.Fatalf("digest diverged at step %d:\npaged:\n%s\noracle:\n%s", step, dump(t, paged), dump(t, oracle))
			}
		}
		if step%60 == 23 {
			// Crash both in lockstep and recover: the paged side from
			// MANIFEST + segments + WAL, the oracle from snapshot + WAL.
			paged.Close()
			oracle.Close()
			if paged, err = Open(dirP, pagedTestOpts(24<<10)); err != nil {
				t.Fatalf("paged reopen at step %d: %v", step, err)
			}
			if oracle, err = Open(dirO, DurabilityOptions{CheckpointBytes: -1}); err != nil {
				t.Fatalf("oracle reopen at step %d: %v", step, err)
			}
			seenCkpts = 0 // in-memory counter resets with the process
			if gp, gz := dump(t, paged), dump(t, oracle); gp != gz {
				t.Fatalf("recovered state diverged at step %d:\npaged:\n%s\noracle:\n%s", step, gp, gz)
			}
			if dp, do := paged.StateDigest(), oracle.StateDigest(); dp != do {
				t.Fatalf("recovered digest diverged at step %d", step)
			}
		}
	}

	if dp, do := paged.StateDigest(), oracle.StateDigest(); dp != do {
		t.Fatalf("final digest diverged")
	}
	cs := paged.CacheStats()
	if cs.Misses == 0 || cs.Evictions == 0 {
		t.Fatalf("cache never thrashed (misses=%d evictions=%d): budget too generous for the test to mean anything", cs.Misses, cs.Evictions)
	}
	paged.Close()
	oracle.Close()
}

// TestPagedCacheBounded loads a dataset at least 4x the cache budget and
// checks that resident bytes stay near the budget while every row remains
// reachable — the beyond-RAM claim in miniature.
func TestPagedCacheBounded(t *testing.T) {
	const budget = 128 << 10
	dir := t.TempDir()
	db, err := Open(dir, pagedTestOpts(budget))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	mustExec(t, db, "CREATE TABLE big (id INT PRIMARY KEY, pad TEXT)")
	pad := strings.Repeat("y", 64)
	const rows = 8192 // ~ 8192*(8+64+overhead) bytes of row data >> 4*budget
	for base := 0; base < rows; base += 64 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO big (id, pad) VALUES ")
		for i := 0; i < 64; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'r%d-%s')", base+i, base+i, pad)
		}
		mustExec(t, db, sb.String())
		if cs := db.CacheStats(); cs.ResidentBytes > budget+budget/2 {
			t.Fatalf("resident %d exceeds budget %d + slack during load", cs.ResidentBytes, budget)
		}
	}
	if got := db.SizeBytes(); int64(got) < 4*budget {
		t.Fatalf("dataset too small to prove anything: %d < 4*%d", got, budget)
	}

	// Random point reads across the whole key space: far more pages than
	// the cache holds, so this faults and evicts continuously.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		id := rng.Intn(rows)
		res := mustExec(t, db, fmt.Sprintf("SELECT pad FROM big WHERE id = %d", id))
		if len(res.Rows) != 1 || !strings.HasPrefix(res.Rows[0][0].S, fmt.Sprintf("r%d-", id)) {
			t.Fatalf("point read %d: %+v", id, res.Rows)
		}
		if cs := db.CacheStats(); cs.ResidentBytes > budget+budget/2 {
			t.Fatalf("resident %d exceeds budget %d + slack during reads", cs.ResidentBytes, budget)
		}
	}
	// A full scan must still see every row even though only a fraction is
	// resident at any instant.
	res := mustExec(t, db, "SELECT id FROM big")
	if len(res.Rows) != rows {
		t.Fatalf("full scan: got %d rows, want %d", len(res.Rows), rows)
	}
	cs := db.CacheStats()
	if cs.Misses == 0 || cs.Evictions == 0 || cs.Hits == 0 {
		t.Fatalf("cache counters implausible: %+v", cs)
	}
	if cs.BudgetBytes != budget {
		t.Fatalf("budget reported %d, want %d", cs.BudgetBytes, budget)
	}
	if db.DiskSizeBytes() <= 0 {
		t.Fatal("DiskSizeBytes reported nothing on a checkpointed paged database")
	}

	// Nothing that outlives a page may alias its decode buffers. Recovery
	// inserts every segment row into the indexes, and an ordered index on
	// a blob column keeps one value per key: were that value a slice of
	// the faulted page's arena, every page's arena, padding included,
	// would stay pinned after eviction. So reopen, scan repeatedly at the
	// tiny budget, and require the live heap to stay well below the
	// table's blob bytes.
	bdir := t.TempDir()
	bdb, err := Open(bdir, pagedTestOpts(budget))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, bdb, "CREATE TABLE bl (id INT PRIMARY KEY, bk BLOB, pad BLOB)")
	mustExec(t, bdb, "CREATE INDEX bl_bk ON bl (bk) USING BTREE")
	const blobRows, padLen = 4096, 2048
	for base := 0; base < blobRows; base += 64 {
		marks := strings.TrimSuffix(strings.Repeat("(?, ?, ?), ", 64), ", ")
		var params []Value
		for id := base; id < base+64; id++ {
			params = append(params, Int(int64(id)), Blob([]byte(fmt.Sprintf("k%07d", id))),
				Blob([]byte(strings.Repeat(string(rune('a'+id%26)), padLen))))
		}
		mustExec(t, bdb, "INSERT INTO bl (id, bk, pad) VALUES "+marks, params...)
	}
	if err := bdb.Close(); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	bdb, err = Open(bdir, pagedTestOpts(budget))
	if err != nil {
		t.Fatal(err)
	}
	defer bdb.Close()
	for i := 0; i < 3; i++ {
		res := mustExec(t, bdb, "SELECT COUNT(*) FROM bl WHERE pad <> bk")
		if len(res.Rows) != 1 || res.Rows[0][0].I != blobRows {
			t.Fatalf("blob scan: %+v", res.Rows)
		}
	}
	res = mustExec(t, bdb, "SELECT MIN(bk), MAX(bk) FROM bl")
	if string(res.Rows[0][0].B) != "k0000000" || string(res.Rows[0][1].B) != fmt.Sprintf("k%07d", blobRows-1) {
		t.Fatalf("MIN/MAX from the blob index: %v", res.Rows[0])
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	grown := int64(ms.HeapAlloc) - int64(base)
	t.Logf("live heap grew %d bytes over the reopen and scans", grown)
	if grown > blobRows*padLen/2 {
		t.Fatalf("live heap grew %d bytes over a reopen and scans of %d bytes of padding: evicted pages are pinned", grown, blobRows*padLen)
	}
}

// TestPagedIncrementalCheckpointBytes checks the incremental claim
// structurally: after a bulk load is checkpointed, dirtying one row makes
// the next checkpoint write roughly one page, not the whole table.
func TestPagedIncrementalCheckpointBytes(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, pagedTestOpts(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, pad TEXT)")
	pad := strings.Repeat("z", 64)
	for base := 0; base < 4096; base += 64 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO t (id, pad) VALUES ")
		for i := 0; i < 64; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, '%s')", base+i, pad)
		}
		mustExec(t, db, sb.String())
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	full := db.LastCheckpointBytes()
	if full <= 0 {
		t.Fatalf("bulk checkpoint wrote %d bytes", full)
	}

	mustExec(t, db, "UPDATE t SET pad = 'tiny' WHERE id = 17")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	incr := db.LastCheckpointBytes()
	if incr <= 0 || incr >= full/4 {
		t.Fatalf("one-row churn checkpoint wrote %d bytes vs %d for the bulk load: not incremental", incr, full)
	}
	if db.CheckpointPauseNanos() <= 0 {
		t.Fatal("checkpoint pause counter never advanced")
	}
}

// TestPagedLayoutConversion opens an existing snapshot-layout directory
// with Paged set and expects an in-place conversion: MANIFEST + segments
// appear, snapshot.db disappears, and the data survives both the
// conversion and a subsequent flag-less reopen.
func TestPagedLayoutConversion(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
	mustExec(t, db, "CREATE INDEX t_name ON t (name)")
	mustExec(t, db, "INSERT INTO t (id, name) VALUES (1, 'a'), (2, 'b'), (3, 'c')")
	if err := db.Checkpoint(); err != nil { // ensure snapshot.db exists
		t.Fatal(err)
	}
	mustExec(t, db, "DELETE FROM t WHERE id = 2") // plus a WAL tail
	want := dump(t, db)
	db.Close()

	db2, err := Open(dir, pagedTestOpts(32<<10))
	if err != nil {
		t.Fatalf("conversion open: %v", err)
	}
	if !db2.Paged() {
		t.Fatal("conversion did not produce a paged database")
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("conversion left no MANIFEST: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapFileName)); !os.IsNotExist(err) {
		t.Fatalf("conversion left snapshot.db behind: %v", err)
	}
	if got := dump(t, db2); got != want {
		t.Fatalf("conversion lost data:\ngot:\n%s\nwant:\n%s", got, want)
	}
	mustExec(t, db2, "INSERT INTO t (id, name) VALUES (4, 'd')")
	want2 := dump(t, db2)
	db2.Close()

	db3, err := Open(dir, DurabilityOptions{}) // no flag: auto-detect
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if !db3.Paged() {
		t.Fatal("converted directory not auto-detected as paged")
	}
	if got := dump(t, db3); got != want2 {
		t.Fatalf("post-conversion reopen lost data:\ngot:\n%s\nwant:\n%s", got, want2)
	}
}

// TestBackgroundAutoCheckpoint verifies that auto-checkpoints run off the
// commit path: commits only kick a background goroutine, which must be
// observed to checkpoint on its own within the deadline.
func TestBackgroundAutoCheckpoint(t *testing.T) {
	for _, paged := range []bool{false, true} {
		t.Run(fmt.Sprintf("paged=%v", paged), func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, DurabilityOptions{Paged: paged, CacheBytes: 1 << 20, CheckpointBytes: 2048})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, pad TEXT)")
			pad := strings.Repeat("w", 128)
			deadline := time.Now().Add(10 * time.Second)
			ckpted := false
			for i := 0; i < 4096 && !ckpted; i++ {
				mustExec(t, db, fmt.Sprintf("INSERT INTO t (id, pad) VALUES (%d, '%s')", i, pad))
				if db.WALStats().Checkpoints > 0 {
					ckpted = true
				}
				if time.Now().After(deadline) {
					break
				}
			}
			// The kick is asynchronous; give the goroutine a moment even
			// after the writes stop.
			for !ckpted && time.Now().Before(deadline) {
				if db.WALStats().Checkpoints > 0 {
					ckpted = true
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
			if !ckpted {
				t.Fatal("background checkpointer never ran despite the WAL passing its threshold")
			}
			if err := db.LastCheckpointError(); err != nil {
				t.Fatalf("background checkpoint failed: %v", err)
			}
			if db.LastCheckpointBytes() <= 0 {
				t.Fatal("LastCheckpointBytes not surfaced")
			}
			if db.CheckpointPauseNanos() <= 0 {
				t.Fatal("CheckpointPauseNanos not surfaced")
			}
		})
	}
}
