package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/sqldb"
	"repro/internal/store"
	"repro/internal/store/sharded"
	"repro/internal/store/single"
)

// figJoins measures the compiled execution pipeline (hash joins, hash
// aggregation, lowered operator pipeline) against the AST interpreter, on
// both the single-DB store and the 4-shard store. Join and group columns
// stand in for DET onions: equality is the only predicate CryptDB's proxy
// emits against them, which is exactly the shape hash joins and hash
// aggregation serve. The plan-counter deltas printed per arm prove which
// pipeline executed (Compiled vs Interpreted) and that grouped queries
// pushed down per shard (GroupPushdowns) instead of falling back to the
// union of shard pages.
func figJoins() error {
	const users = 5000
	const orders = 20000
	const groups = 50

	fmt.Printf("Compiled vs interpreted execution: joins and GROUP BY, GOMAXPROCS=%d\n", runtime.GOMAXPROCS(0))
	fmt.Printf("%-34s %12s %14s %30s\n", "arm", "per stmt", "rows/sec", "plan counters (delta)")

	queries := []struct {
		key  string
		sql  string
		rows int
	}{
		{"equijoin", "SELECT orders.id, users.grp FROM orders, users WHERE orders.uid = users.id", orders},
		{"groupby", "SELECT grp, COUNT(*), SUM(amt), MIN(amt) FROM orders GROUP BY grp", groups},
		{"join-groupby", "SELECT users.grp, COUNT(*), SUM(orders.amt) FROM orders, users WHERE orders.uid = users.id GROUP BY users.grp", groups},
	}

	load := func(eng store.Engine) error {
		ddl := []string{
			"CREATE TABLE users (id INT PRIMARY KEY, grp INT)",
			"CREATE TABLE orders (id INT PRIMARY KEY, uid INT, grp INT, amt INT)",
			"CREATE INDEX orders_uid ON orders (uid) USING HASH",
		}
		for _, q := range ddl {
			if _, err := eng.ExecSQL(q); err != nil {
				return err
			}
		}
		insert := func(table, cols string, n int, row func(i int) string) error {
			const batch = 1000
			for lo := 0; lo < n; lo += batch {
				hi := lo + batch
				if hi > n {
					hi = n
				}
				var sb strings.Builder
				fmt.Fprintf(&sb, "INSERT INTO %s (%s) VALUES ", table, cols)
				for i := lo; i < hi; i++ {
					if i > lo {
						sb.WriteString(", ")
					}
					sb.WriteString(row(i))
				}
				if _, err := eng.ExecSQL(sb.String()); err != nil {
					return err
				}
			}
			return nil
		}
		if err := insert("users", "id, grp", users, func(i int) string {
			return fmt.Sprintf("(%d, %d)", i, i%groups)
		}); err != nil {
			return err
		}
		return insert("orders", "id, uid, grp, amt", orders, func(i int) string {
			return fmt.Sprintf("(%d, %d, %d, %d)", i, i%users, i%groups, i%977)
		})
	}

	type arm struct {
		key string
		eng store.Engine
		dbs []*sqldb.DB // every embedded DB, for toggling the pipeline
	}
	sdb := sqldb.New()
	sh := sharded.New(4)
	var shardDBs []*sqldb.DB
	for i := 0; i < sh.Shards(); i++ {
		shardDBs = append(shardDBs, sh.Shard(i))
	}
	stores := []arm{
		{"single", single.New(sdb), []*sqldb.DB{sdb}},
		{"sharded-4", sh, shardDBs},
	}

	for _, st := range stores {
		if err := load(st.eng); err != nil {
			return err
		}
	}

	compiledRows := map[string]float64{} // "query/store" -> rows/sec, compiled arms
	for _, q := range queries {
		for _, st := range stores {
			for _, mode := range []struct {
				key      string
				compiled bool
			}{{"compiled", true}, {"interpreted", false}} {
				for _, db := range st.dbs {
					db.SetCompiledExec(mode.compiled)
				}
				// Warm once (build caches, verify the row count), then
				// measure enough reps for a stable per-statement time.
				res, err := st.eng.ExecSQL(q.sql)
				if err != nil {
					return err
				}
				if len(res.Rows) != q.rows {
					return fmt.Errorf("%s on %s: got %d rows, want %d", q.key, st.key, len(res.Rows), q.rows)
				}
				before := st.eng.Stats().Plan
				reps := 0
				start := time.Now()
				for time.Since(start) < 2*time.Second && reps < 200 {
					if _, err := st.eng.ExecSQL(q.sql); err != nil {
						return err
					}
					reps++
				}
				elapsed := time.Since(start)
				delta := planDelta(before, st.eng.Stats().Plan)
				perOp := elapsed / time.Duration(reps)
				rowsPerSec := float64(q.rows) * float64(reps) / elapsed.Seconds()
				name := fmt.Sprintf("%s/%s/%s", q.key, st.key, mode.key)
				fmt.Printf("%-34s %12s %14.0f %30s\n", name, perOp.Round(time.Microsecond), rowsPerSec, delta)
				recordArm(name, float64(perOp.Nanoseconds()), rowsPerSec)
				if mode.compiled {
					compiledRows[q.key+"/"+st.key] = rowsPerSec
				}
			}
		}
		// Leave both engines in the default configuration.
		for _, st := range stores {
			for _, db := range st.dbs {
				db.SetCompiledExec(true)
			}
		}
	}

	fmt.Println("\nThe compiled arms keep every query off the interpreter (Compiled>0,")
	fmt.Println("Interpreted=0) and join via hash tables; on the sharded store, grouped")
	fmt.Println("queries over the routing-compatible shapes decompose per shard")
	fmt.Println("(GroupPushdowns) while the cross-shard join runs once over the union")
	fmt.Println("of the shards' pages, borrowed in place.")

	// The cross-shard equijoin used to copy every shard's rows into a
	// transient table and re-index it, and ran 4-5x behind the single store.
	// Over borrowed shard pages it runs the single-node plan on the same
	// rows, so it should stay near single-node speed: flag it if it does not.
	if s, sh := compiledRows["equijoin/single"], compiledRows["equijoin/sharded-4"]; s > 0 && sh > 0 {
		ratio := s / sh
		fmt.Printf("\nequijoin compiled: single %.0f rows/s vs sharded-4 %.0f rows/s (%.1fx)\n", s, sh, ratio)
		if ratio > 1.5 {
			fmt.Printf("WARNING: sharded-4 equijoin more than 1.5x behind single: the\n")
			fmt.Printf("cross-shard join is likely copying or re-indexing shard rows again.\n")
		}
	}
	return nil
}

// planDelta renders the interesting plan-counter movement between two
// snapshots.
func planDelta(a, b sqldb.PlanCounters) string {
	return fmt.Sprintf("cmp=%d int=%d hj=%d push=%d",
		b.Compiled-a.Compiled, b.Interpreted-a.Interpreted,
		b.HashJoins-a.HashJoins, b.GroupPushdowns-a.GroupPushdowns)
}
