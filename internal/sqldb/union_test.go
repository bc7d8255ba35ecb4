package sqldb

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sqlparser"
)

// TestSelectUnionMatchesSingle: a SELECT over the union of three databases
// returns what it returns on one database holding all their rows, with
// the compiled pipeline and with the interpreter. One part stores a text
// key among integers and NULLs, so equality through the borrowed hash
// indexes must coerce per part exactly as the single database does.
func TestSelectUnionMatchesSingle(t *testing.T) {
	queries := []string{
		"SELECT a.id, b.w FROM a, b WHERE a.k = b.k",
		"SELECT a.id, b.w FROM a JOIN b ON b.k = a.k WHERE a.g = 'g3'",
		"SELECT b.w, a.id FROM b JOIN a ON a.k = b.k",
		"SELECT a.g, COUNT(*), SUM(b.w) FROM a JOIN b ON a.k = b.k GROUP BY a.g",
		"SELECT COUNT(DISTINCT k), COUNT(*), MIN(id), MAX(id) FROM a",
		"SELECT id FROM a WHERE k = 7",
		"SELECT x.id, y.id FROM a x, a y WHERE x.id = y.k",
		"SELECT DISTINCT g FROM a ORDER BY g LIMIT 3",
	}
	for _, compiled := range []bool{true, false} {
		t.Run(fmt.Sprintf("compiled=%v", compiled), func(t *testing.T) {
			all := New()
			parts := []*DB{New(), New(), New()}
			for _, db := range append([]*DB{all}, parts...) {
				db.SetCompiledExec(compiled)
				mustExec(t, db, "CREATE TABLE a (id INT, k INT, g TEXT)")
				mustExec(t, db, "CREATE INDEX a_k ON a (k) USING HASH")
				mustExec(t, db, "CREATE TABLE b (k INT, w INT)")
				mustExec(t, db, "CREATE INDEX b_k ON b (k) USING HASH")
			}
			both := func(p *DB, sql string, params ...Value) {
				mustExec(t, all, sql, params...)
				mustExec(t, p, sql, params...)
			}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 600; i++ {
				both(parts[i%3], "INSERT INTO a (id, k, g) VALUES (?, ?, ?)",
					Int(int64(i)), Int(int64(rng.Intn(50))), Text(fmt.Sprintf("g%d", i%7)))
				if i%2 == 0 {
					both(parts[rng.Intn(3)], "INSERT INTO b (k, w) VALUES (?, ?)",
						Int(int64(rng.Intn(60))), Int(int64(i)))
				}
			}
			both(parts[1], "INSERT INTO a (id, k, g) VALUES (1000, '7', 'txt'), (1001, NULL, 'nul')")
			both(parts[2], "INSERT INTO b (k, w) VALUES (NULL, -1)")
			mustExec(t, all, "DELETE FROM a WHERE id < 40")
			for _, p := range parts {
				mustExec(t, p, "DELETE FROM a WHERE id < 40")
			}

			sessions := make([]*Session, len(parts))
			for i, p := range parts {
				sessions[i] = p.NewSession()
			}
			coord := New()
			for _, q := range queries {
				want := mustExec(t, all, q)
				got, err := coord.SelectUnion(sessions, mustParse(t, q).(*sqlparser.SelectStmt), nil)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				sameRows(t, "union", q, want, got, false)
			}
			pc := coord.PlanCounters()
			if compiled && (pc.Compiled != int64(len(queries)) || pc.HashJoins == 0) {
				t.Fatalf("union statements not compiled or joined by hash: %+v", pc)
			}
			if !compiled && pc.Compiled != 0 {
				t.Fatalf("interpreted union ran compiled: %+v", pc)
			}
		})
	}
}
