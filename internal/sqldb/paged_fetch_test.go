package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// fetchTableRows is the size of the table the paged-fetch tests load: a
// dozen pages, so a 1-2 page cache faults on almost every page touch.
const fetchTableRows = 3000

// loadFetchTable creates f(id, k, tag, pad) with an ordered index on k and
// loads rows in a shuffled id order, so that index order visits pages at
// random. k has many ties (four rows per key) and pad makes each page a
// few tens of KiB.
func loadFetchTable(t *testing.T, db *DB, rows int) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE f (id INT PRIMARY KEY, k INT, tag TEXT, pad BLOB)")
	mustExec(t, db, "CREATE INDEX fk ON f (k) USING BTREE")
	ids := rand.New(rand.NewSource(5)).Perm(rows)
	const batch = 50
	for lo := 0; lo < rows; lo += batch {
		var sb strings.Builder
		sb.WriteString("INSERT INTO f (id, k, tag, pad) VALUES ")
		var params []Value
		for i, id := range ids[lo:min(lo+batch, rows)] {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString("(?, ?, ?, ?)")
			pad := []byte(fmt.Sprintf("%064d", id))
			params = append(params, Int(int64(id)), Int(int64(id/4)), Text(fmt.Sprintf("t%d", id%7)), Blob(pad))
		}
		mustExec(t, db, sb.String(), params...)
	}
}

// openFetchPaged opens a paged database holding the fetch table, with a
// cache of about one page and every page checkpointed, so clean and
// evictable.
func openFetchPaged(t *testing.T, rows int) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), pagedTestOpts(40<<10))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	loadFetchTable(t, db, rows)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "SELECT COUNT(*) FROM f WHERE tag = 'none'") // settle the cache
	return db
}

// rowsDiffer describes the first difference between two ordered row sets.
func rowsDiffer(a, b [][]Value) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d: %d vs %d columns", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j].Key() != b[i][j].Key() {
				return fmt.Errorf("row %d col %d: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}

// TestPagedOrderedFetchEquivalence runs the index-order read shapes on a
// paged table with a 1-2 page cache and on a resident copy: ASC and DESC,
// LIMIT and OFFSET, a residual WHERE the index cannot serve, DISTINCT,
// ties on the key, and rows deleted between statements. Results must match
// row for row, in order.
func TestPagedOrderedFetchEquivalence(t *testing.T) {
	paged := openFetchPaged(t, fetchTableRows)
	resident := New()
	loadFetchTable(t, resident, fetchTableRows)

	queries := []string{
		"SELECT id, k, pad FROM f ORDER BY k LIMIT 50",
		"SELECT id, k, pad FROM f ORDER BY k DESC LIMIT 50",
		"SELECT id, k FROM f ORDER BY k LIMIT 20 OFFSET 30",
		"SELECT id, k FROM f ORDER BY k DESC LIMIT 7 OFFSET 100",
		"SELECT id, k FROM f WHERE k > 400 ORDER BY k LIMIT 25",
		"SELECT id, k FROM f WHERE k BETWEEN 10 AND 20 ORDER BY k DESC",
		"SELECT id, tag FROM f WHERE tag <> 't3' ORDER BY k LIMIT 40",
		"SELECT id, tag FROM f WHERE k < 600 AND tag = 't1' ORDER BY k DESC LIMIT 30 OFFSET 2",
		"SELECT DISTINCT k FROM f ORDER BY k LIMIT 10",
		"SELECT DISTINCT k FROM f WHERE k >= 700 ORDER BY k DESC LIMIT 10 OFFSET 3",
		"SELECT id, k FROM f ORDER BY k",
		"SELECT id FROM f WHERE k > 100 AND k <= 130",
		"SELECT id, pad FROM f WHERE k = 77",
	}
	check := func(phase string) {
		t.Helper()
		before := paged.PlanCounters().OrderedScans
		for _, q := range queries {
			rp, errP := paged.ExecSQL(q)
			ro, errO := resident.ExecSQL(q)
			if errP != nil || errO != nil {
				t.Fatalf("%s %q: paged=%v resident=%v", phase, q, errP, errO)
			}
			if err := rowsDiffer(rp.Rows, ro.Rows); err != nil {
				t.Fatalf("%s %q: %v", phase, q, err)
			}
		}
		if paged.PlanCounters().OrderedScans == before {
			t.Fatalf("%s: no statement took the ordered-index path", phase)
		}
	}
	check("loaded")
	for _, del := range []string{
		"DELETE FROM f WHERE id < 200",
		"DELETE FROM f WHERE k = 300 OR k = 301",
		"DELETE FROM f WHERE tag = 't5'",
	} {
		mustExec(t, paged, del)
		mustExec(t, resident, del)
		check("after " + del)
	}
	if cs := paged.CacheStats(); cs.Evictions == 0 {
		t.Fatalf("cache never evicted, so nothing was faulted: %+v", cs)
	}
}

// TestPagedOrderedFetchFaultsOncePerPage checks the page-once property: an
// ordered LIMIT statement over a cache far smaller than the pages it
// touches adds at most one miss per distinct page.
func TestPagedOrderedFetchFaultsOncePerPage(t *testing.T) {
	db := openFetchPaged(t, fetchTableRows)
	for _, q := range []struct {
		sql  string
		desc bool
		n    int
	}{
		{"SELECT id, pad FROM f ORDER BY k LIMIT 50", false, 50},
		{"SELECT id, pad FROM f ORDER BY k DESC LIMIT 40 OFFSET 60", true, 100},
	} {
		tb := db.Table("f")
		var slots []int
		visit := func(n *ordNode) bool {
			slots = append(slots, n.slots...)
			return len(slots) < q.n
		}
		db.mu.RLock()
		if q.desc {
			tb.ordIndexes["k"].descendRange(ordRange{all: true}, visit)
		} else {
			tb.ordIndexes["k"].ascendRange(ordRange{all: true}, visit)
		}
		db.mu.RUnlock()
		pages := map[int]bool{}
		for _, s := range slots[:q.n] {
			pages[s>>pageShift] = true
		}
		before := db.CacheStats().Misses
		res := mustExec(t, db, q.sql)
		misses := db.CacheStats().Misses - before
		if len(res.Rows) == 0 || misses == 0 {
			t.Fatalf("%q: %d rows, %d misses: nothing was faulted", q.sql, len(res.Rows), misses)
		}
		if misses > int64(len(pages)) {
			t.Fatalf("%q: %d misses for %d distinct pages", q.sql, misses, len(pages))
		}
	}
}

// TestPagedConcurrentFaults runs full scans and ordered LIMIT reads from
// four goroutines over a paged table whose cache holds one or two pages,
// so statements keep faulting and evicting the same pages under each
// other. Run it under -race: it covers the fault that loses its install
// race to a page a concurrent sweep has already evicted again.
func TestPagedConcurrentFaults(t *testing.T) {
	db := openFetchPaged(t, 1500)
	db.SetExecWorkers(2)
	queries := []string{
		"SELECT COUNT(*), SUM(k) FROM f",
		"SELECT id FROM f ORDER BY k LIMIT 30",
		"SELECT id, pad FROM f ORDER BY k DESC LIMIT 30 OFFSET 5",
		"SELECT COUNT(*) FROM f WHERE tag = 't2'",
		"SELECT id FROM f WHERE k > 200 AND k < 260",
	}
	want := make([][][]Value, len(queries))
	for i, q := range queries {
		want[i] = mustExec(t, db, q).Rows
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				qi := (g + i) % len(queries)
				res, err := db.ExecSQL(queries[qi])
				if err != nil {
					t.Errorf("goroutine %d %q: %v", g, queries[qi], err)
					return
				}
				if err := rowsDiffer(res.Rows, want[qi]); err != nil {
					t.Errorf("goroutine %d %q: %v", g, queries[qi], err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if cs := db.CacheStats(); cs.Misses == 0 || cs.Evictions == 0 {
		t.Fatalf("cache did not thrash: %+v", cs)
	}
}

// TestFaultPageAllocs bounds the allocations of a page fault: the rows'
// own []Value slices plus a small constant, however many blob and text
// cells the rows hold.
func TestFaultPageAllocs(t *testing.T) {
	const rows = 400 // a full page 0 and 144 rows on page 1
	for _, blobCols := range []int{1, 8} {
		db, err := Open(t.TempDir(), pagedTestOpts(1<<10))
		if err != nil {
			t.Fatal(err)
		}
		cols := []string{"id INT PRIMARY KEY", "name TEXT"}
		marks := []string{"?", "?"}
		for c := 0; c < blobCols; c++ {
			cols = append(cols, fmt.Sprintf("b%d BLOB", c))
			marks = append(marks, "?")
		}
		mustExec(t, db, "CREATE TABLE a ("+strings.Join(cols, ", ")+")")
		for id := 0; id < rows; id++ {
			params := []Value{Int(int64(id)), Text(fmt.Sprintf("row %d", id))}
			for c := 0; c < blobCols; c++ {
				params = append(params, Blob([]byte(fmt.Sprintf("blob %d/%d", id, c))))
			}
			mustExec(t, db, "INSERT INTO a VALUES ("+strings.Join(marks, ", ")+")", params...)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		tb := db.Table("a")
		// The budget is below one page, so faulting either page evicts the
		// other: every run below is two faults.
		const runs = 20
		db.mu.RLock()
		tb.page(0)
		tb.page(1)
		before := db.CacheStats().Misses
		allocs := testing.AllocsPerRun(runs, func() {
			tb.page(0)
			tb.page(1)
		})
		db.mu.RUnlock()
		if faults := db.CacheStats().Misses - before; faults < 2*runs {
			t.Fatalf("%d blob columns: %d faults in %d runs, want two a run", blobCols, faults, runs)
		}
		if limit := float64(rows + 2*16); allocs > limit {
			t.Fatalf("%d blob columns: %.0f allocations to fault %d rows on two pages, want at most %.0f", blobCols, allocs, rows, limit)
		}
		db.Close()
	}
}
