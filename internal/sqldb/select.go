package sqldb

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/sqlparser"
)

func (db *DB) execSelect(s *sqlparser.SelectStmt, params []Value) (*Result, error) {
	sc := &scope{}
	for _, ref := range s.From {
		t, ok := db.tables[ref.Table]
		if !ok {
			return nil, fmt.Errorf("sqldb: no table %s", ref.Table)
		}
		sc.addTable(ref.Alias, t)
	}

	// Detect aggregation anywhere in the projection / HAVING / ORDER BY,
	// up front so the index fast paths know the query shape.
	var aggCalls []*sqlparser.FuncCall
	for _, se := range s.Exprs {
		if !se.Star {
			collectAggCalls(db, se.Expr, &aggCalls)
		}
	}
	if s.Having != nil {
		collectAggCalls(db, s.Having, &aggCalls)
	}
	for _, o := range s.OrderBy {
		collectAggCalls(db, o.Expr, &aggCalls)
	}

	if len(s.GroupBy) == 0 {
		if len(aggCalls) > 0 {
			if res, ok, err := db.tryIndexMinMax(s, sc, params); ok {
				return res, err
			}
		} else if res, ok, err := db.tryOrderedSelect(s, sc, params); ok {
			return res, err
		}
	}

	// General path: lower the plan into the compiled operator pipeline
	// (compile.go / exec.go) when every piece is within the compiler's
	// coverage, else interpret the AST row by row. The index fast paths
	// above count separately (orderedScans / minMaxFast).
	if db.compiledExecEnabled() {
		if cp, ok := db.compileSelect(s, sc, aggCalls, params); ok {
			atomic.AddInt64(&db.compiledSel, 1)
			return cp.run()
		}
	}
	atomic.AddInt64(&db.interpSel, 1)

	tuples, err := db.produceTuples(s, sc, params)
	if err != nil {
		return nil, err
	}

	if len(s.GroupBy) > 0 || len(aggCalls) > 0 {
		return db.selectGrouped(s, sc, tuples, aggCalls, params)
	}
	return db.selectPlain(s, sc, tuples, params)
}

// tryOrderedSelect serves single-table, non-aggregate SELECTs whose ORDER
// BY is one indexed column straight from the ordered index: rows stream out
// in index order (no materialize-then-sort), a sargable range on the same
// column bounds the walk, and a LIMIT terminates it early (§3.3: ORDER BY,
// LIMIT run on OPE ciphertexts using ordinary ordered indexes). Returns
// ok=false to fall back to the general path.
func (db *DB) tryOrderedSelect(s *sqlparser.SelectStmt, sc *scope, params []Value) (*Result, bool, error) {
	if len(sc.tabs) != 1 || s.Having != nil || len(s.OrderBy) != 1 {
		return nil, false, nil
	}
	items := db.resolveOrderBy(s)
	cr, ok := items[0].Expr.(*sqlparser.ColRef)
	if !ok {
		return nil, false, nil
	}
	ti, pos, err := sc.resolve(cr.Table, cr.Column)
	if err != nil || ti != 0 {
		return nil, false, nil
	}
	t := sc.tabs[0].t
	col := t.Cols[pos].Name
	ix := t.ordIndexes[col]
	if ix == nil {
		return nil, false, nil
	}
	if _, homogeneous := ix.soleKind(); !homogeneous {
		return nil, false, nil
	}

	// Bound the walk with any sargable constraints on the ORDER BY column;
	// other conjuncts filter row by row below.
	conj := conjuncts(s.Where)
	rng := ordRange{all: true}
	if b := db.sargBounds(conj, sc, 0, params)[col]; b != nil {
		if b.bad {
			return nil, false, nil // a scan preserves evaluation errors
		}
		if b.impossible {
			rng = ordRange{empty: true}
		} else if r, ok := ix.rangeFor(b); ok {
			rng = r
		} else {
			return nil, false, nil
		}
	}

	cols, projExprs, err := db.projectionPlan(s, sc)
	if err != nil {
		return nil, true, err
	}

	// With a LIMIT (and no DISTINCT collapsing rows afterwards), stop as
	// soon as offset+limit rows matched.
	want := -1
	if s.Limit != nil && !s.Distinct {
		want = int(*s.Limit)
		if s.Offset != nil {
			want += int(*s.Offset)
		}
	}

	res := &Result{Columns: cols}
	var walkErr error
	t.fetchOrdered(ix, rng, items[0].Desc, want, func(_ int, row []Value) bool {
		tup := tuple{row}
		if s.Where != nil {
			ctx := &evalCtx{db: db, scope: sc, tup: tup, params: params}
			v, err := ctx.eval(s.Where)
			if err != nil {
				walkErr = err
				return false
			}
			if !v.Truthy() {
				return true
			}
		}
		out, err := db.projectRow(projExprs, sc, tup, params, nil)
		if err != nil {
			walkErr = err
			return false
		}
		res.Rows = append(res.Rows, out)
		return want < 0 || len(res.Rows) < want
	})
	if walkErr != nil {
		return nil, true, walkErr
	}
	atomic.AddInt64(&db.orderedScans, 1)
	if s.Distinct {
		res.Rows = dedupRows(res.Rows)
	}
	res.Rows = applyLimit(res.Rows, s.Limit, s.Offset)
	return res, true, nil
}

// tryIndexMinMax answers `SELECT MIN(col) / MAX(col) FROM t` projections
// from the endpoints of ordered indexes without touching any row (§3.3:
// MIN/MAX run on OPE ciphertexts). Returns ok=false to fall back.
func (db *DB) tryIndexMinMax(s *sqlparser.SelectStmt, sc *scope, params []Value) (*Result, bool, error) {
	if len(sc.tabs) != 1 || s.Where != nil || s.Having != nil || len(s.OrderBy) != 0 {
		return nil, false, nil
	}
	t := sc.tabs[0].t
	aggVals := make(map[string]Value, len(s.Exprs))
	for _, se := range s.Exprs {
		if se.Star {
			return nil, false, nil
		}
		fc, ok := se.Expr.(*sqlparser.FuncCall)
		if !ok || (fc.Name != "MIN" && fc.Name != "MAX") || fc.Star || fc.Distinct || len(fc.Args) != 1 {
			return nil, false, nil
		}
		cr, ok := fc.Args[0].(*sqlparser.ColRef)
		if !ok {
			return nil, false, nil
		}
		ti, pos, err := sc.resolve(cr.Table, cr.Column)
		if err != nil || ti != 0 {
			return nil, false, nil
		}
		ix := t.ordIndexes[t.Cols[pos].Name]
		if ix == nil {
			return nil, false, nil
		}
		if _, homogeneous := ix.soleKind(); !homogeneous {
			return nil, false, nil
		}
		var n *ordNode
		if fc.Name == "MIN" {
			n = ix.minNonNull()
		} else {
			n = ix.maxNonNull()
		}
		v := Null()
		if n != nil {
			v = n.val
		}
		aggVals[fc.String()] = v
	}

	cols, projExprs, err := db.projectionPlan(s, sc)
	if err != nil {
		return nil, true, err
	}
	row, err := db.projectRow(projExprs, sc, nil, params, aggVals)
	if err != nil {
		return nil, true, err
	}
	atomic.AddInt64(&db.minMaxFast, 1)
	res := &Result{Columns: cols, Rows: [][]Value{row}}
	if s.Distinct {
		res.Rows = dedupRows(res.Rows)
	}
	res.Rows = applyLimit(res.Rows, s.Limit, s.Offset)
	return res, true, nil
}

// produceTuples evaluates the FROM clause (joins) and the WHERE filter.
// Access paths are planned per table: hash indexes serve equality
// predicates and equijoin probes, ordered indexes serve range predicates,
// and a comma join seeds from the most selective table.
func (db *DB) produceTuples(s *sqlparser.SelectStmt, sc *scope, params []Value) ([]tuple, error) {
	if len(s.From) == 0 {
		// SELECT without FROM: one empty tuple, then WHERE.
		one := []tuple{nil}
		return db.filterWhere(s, sc, one, params)
	}

	conj := conjuncts(s.Where)

	// Access paths are planned lazily: costing a range access walks the
	// ordered index, and tables reached through equijoin probes may never
	// consult their own path at all. Only a comma join (which may reorder
	// around the most selective table) needs every cost up front.
	accesses := make([]access, len(sc.tabs))
	planned := make([]bool, len(sc.tabs))
	accessFor := func(ti int) access {
		if !planned[ti] {
			accesses[ti] = db.bestAccess(sc.tabs[ti].t, sc, ti, conj, params)
			planned[ti] = true
		}
		return accesses[ti]
	}
	commaJoin := len(sc.tabs) > 1
	for _, ref := range s.From {
		if ref.JoinOn != nil {
			commaJoin = false
			break
		}
	}
	order := make([]int, len(sc.tabs))
	for i := range order {
		order[i] = i
	}
	if commaJoin {
		for ti := range sc.tabs {
			accessFor(ti)
		}
		order = joinOrder(s, accesses)
	}

	// Seed from the first table in join order.
	seed := order[0]
	db.countAccess(accessFor(seed))
	var tuples []tuple
	accessFor(seed).iterate(sc.tabs[seed].t, func(_ int, row []Value) bool {
		tup := make(tuple, len(sc.tabs))
		tup[seed] = row
		tuples = append(tuples, tup)
		return true
	})

	// Join each remaining table in join order.
	placed := make([]bool, len(sc.tabs))
	placed[seed] = true
	for k := 1; k < len(order); k++ {
		ti := order[k]
		ref := s.From[ti]
		st := sc.tabs[ti]

		// A probe comes from an ON conjunct (`earlier.col = new.col`) or,
		// for comma joins, from an equivalent WHERE conjunct. When the
		// probe is the entire ON clause the probed rows already satisfy
		// it; otherwise the full ON filter is applied to each match.
		onConj := conjuncts(ref.JoinOn)
		probe, probeCol, probeOK, equi := db.joinProbe(onConj, sc, ti)
		probeIsOn := probeOK && len(onConj) == 1
		if probeOK && equi > 1 {
			// The interpreter probes a single column of a multi-column equi
			// key and filters the rest per pair; the compiled hash join
			// (exec.go) uses the full key. Count the degradation.
			atomic.AddInt64(&db.joinDegraded, 1)
		}
		if !probeOK {
			probe, probeCol, probeOK = db.whereProbe(conj, sc, ti, placed)
		}

		onFilter := func(nt tuple) (bool, error) {
			if ref.JoinOn == nil {
				return true, nil
			}
			ctx := &evalCtx{db: db, scope: sc, tup: nt, params: params}
			v, err := ctx.eval(ref.JoinOn)
			if err != nil {
				return false, err
			}
			return v.Truthy(), nil
		}

		var next []tuple
		for _, tup := range tuples {
			if probeOK {
				ctx := &evalCtx{db: db, scope: sc, tup: tup, params: params}
				v, err := ctx.eval(probe)
				if err != nil {
					return nil, err
				}
				if slots, has := st.t.lookup(probeCol, v); has {
					for _, slot := range slots {
						nt := cloneTuple(tup)
						nt[ti] = st.t.rowAt(slot)
						if !probeIsOn {
							keep, err := onFilter(nt)
							if err != nil {
								return nil, err
							}
							if !keep {
								continue
							}
						}
						next = append(next, nt)
					}
					continue
				}
			}
			// Fall back to a nested loop over the table's own access path
			// (its sargable predicates, or a scan) with the ON filter.
			var scanErr error
			accessFor(ti).iterate(st.t, func(_ int, row []Value) bool {
				nt := cloneTuple(tup)
				nt[ti] = row
				keep, err := onFilter(nt)
				if err != nil {
					scanErr = err
					return false
				}
				if keep {
					next = append(next, nt)
				}
				return true
			})
			if scanErr != nil {
				return nil, scanErr
			}
		}
		tuples = next
		placed[ti] = true
	}

	return db.filterWhere(s, sc, tuples, params)
}

func (db *DB) filterWhere(s *sqlparser.SelectStmt, sc *scope, tuples []tuple, params []Value) ([]tuple, error) {
	if s.Where == nil {
		return tuples, nil
	}
	out := tuples[:0]
	for _, tup := range tuples {
		ctx := &evalCtx{db: db, scope: sc, tup: tup, params: params}
		v, err := ctx.eval(s.Where)
		if err != nil {
			return nil, err
		}
		if v.Truthy() {
			out = append(out, tup)
		}
	}
	return out, nil
}

func cloneTuple(t tuple) tuple {
	nt := make(tuple, len(t))
	copy(nt, t)
	return nt
}

// conjuncts splits an expression on top-level ANDs.
func conjuncts(e sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []sqlparser.Expr{e}
}

// isConstant reports whether e involves no column references or aggregates.
func isConstant(e sqlparser.Expr) bool {
	switch x := e.(type) {
	case *sqlparser.IntLit, *sqlparser.StrLit, *sqlparser.BytesLit,
		*sqlparser.NullLit, *sqlparser.BoolLit, *sqlparser.Param:
		return true
	case *sqlparser.UnaryExpr:
		return isConstant(x.E)
	case *sqlparser.BinaryExpr:
		return isConstant(x.L) && isConstant(x.R)
	}
	return false
}

// joinProbe scans the ON conjuncts for equalities of the form
// `earlier.col = new.col` and returns the first whose new-table side is
// indexed: the expression to evaluate against earlier tables, the probe
// column on the new table, and the total number of equi conjuncts found —
// so the caller can tell when a multi-column equi key degraded to a
// single-column probe (the compiled hash join uses the full key).
func (db *DB) joinProbe(onConj []sqlparser.Expr, sc *scope, ti int) (sqlparser.Expr, string, bool, int) {
	var probe sqlparser.Expr
	var probeCol string
	found, equi := false, 0
	newTable := sc.tabs[ti].t
	side := func(e sqlparser.Expr) (int, string, bool) {
		cr, ok := e.(*sqlparser.ColRef)
		if !ok {
			return 0, "", false
		}
		cti, _, err := sc.resolve(cr.Table, cr.Column)
		if err != nil {
			return 0, "", false
		}
		return cti, cr.Column, true
	}
	for _, pred := range onConj {
		b, ok := pred.(*sqlparser.BinaryExpr)
		if !ok || b.Op != "=" {
			continue
		}
		lt, lc, lok := side(b.L)
		rt, rc, rok := side(b.R)
		if !lok || !rok {
			continue
		}
		switch {
		case lt == ti && rt < ti:
			equi++
			if !found {
				if newTable.hasIndex(lc) {
					probe, probeCol, found = b.R, lc, true
				}
			}
		case rt == ti && lt < ti:
			equi++
			if !found {
				if newTable.hasIndex(rc) {
					probe, probeCol, found = b.L, rc, true
				}
			}
		}
	}
	return probe, probeCol, found, equi
}

//
// Plain (non-aggregate) SELECT.
//

func (db *DB) selectPlain(s *sqlparser.SelectStmt, sc *scope, tuples []tuple, params []Value) (*Result, error) {
	// ORDER BY over raw tuples so it can reference non-projected columns.
	if len(s.OrderBy) > 0 {
		if err := db.sortTuples(s, sc, tuples, params); err != nil {
			return nil, err
		}
	}

	cols, projExprs, err := db.projectionPlan(s, sc)
	if err != nil {
		return nil, err
	}

	res := &Result{Columns: cols}
	for _, tup := range tuples {
		row, err := db.projectRow(projExprs, sc, tup, params, nil)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}

	if s.Distinct {
		res.Rows = dedupRows(res.Rows)
	}
	res.Rows = applyLimit(res.Rows, s.Limit, s.Offset)
	return res, nil
}

// sortTuples sorts tuples in place per ORDER BY, resolving aliases to their
// select expressions.
func (db *DB) sortTuples(s *sqlparser.SelectStmt, sc *scope, tuples []tuple, params []Value) error {
	items := db.resolveOrderBy(s)
	var sortErr error
	sort.SliceStable(tuples, func(i, j int) bool {
		for _, item := range items {
			ci := &evalCtx{db: db, scope: sc, tup: tuples[i], params: params}
			cj := &evalCtx{db: db, scope: sc, tup: tuples[j], params: params}
			vi, err := ci.eval(item.Expr)
			if err != nil {
				sortErr = err
				return false
			}
			vj, err := cj.eval(item.Expr)
			if err != nil {
				sortErr = err
				return false
			}
			c := compareForSort(vi, vj)
			if c == 0 {
				continue
			}
			if item.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return sortErr
}

// resolveOrderBy substitutes select-list aliases into ORDER BY items.
func (db *DB) resolveOrderBy(s *sqlparser.SelectStmt) []sqlparser.OrderItem {
	out := make([]sqlparser.OrderItem, len(s.OrderBy))
	copy(out, s.OrderBy)
	for i, item := range out {
		cr, ok := item.Expr.(*sqlparser.ColRef)
		if !ok || cr.Table != "" {
			continue
		}
		for _, se := range s.Exprs {
			if !se.Star && se.Alias == cr.Column {
				out[i].Expr = se.Expr
				break
			}
		}
	}
	return out
}

// SortCompare orders values exactly as ORDER BY does (NULLs first,
// cross-kind values by kind, never failing). Exported for storage layers
// that merge pre-sorted result streams — the sharded store's k-way merge
// must agree with the per-shard sort order or merged output interleaves.
func SortCompare(a, b Value) int { return compareForSort(a, b) }

// compareForSort orders values with NULLs first and cross-kind values by
// kind, so sorting never fails.
func compareForSort(a, b Value) int {
	if a.IsNull() && b.IsNull() {
		return 0
	}
	if a.IsNull() {
		return -1
	}
	if b.IsNull() {
		return 1
	}
	if c, err := a.Compare(b); err == nil {
		return c
	}
	return cmpInt(int64(a.Kind), int64(b.Kind))
}

// projectionPlan expands stars and returns output column names plus the
// expression list to evaluate per row.
func (db *DB) projectionPlan(s *sqlparser.SelectStmt, sc *scope) ([]string, []sqlparser.Expr, error) {
	var cols []string
	var exprs []sqlparser.Expr
	for _, se := range s.Exprs {
		if se.Star {
			for _, st := range sc.tabs {
				for _, c := range st.t.Cols {
					cols = append(cols, c.Name)
					exprs = append(exprs, &sqlparser.ColRef{Table: st.alias, Column: c.Name})
				}
			}
			continue
		}
		if cr, ok := se.Expr.(*sqlparser.ColRef); ok && cr.Column == "*" && cr.Table != "" {
			// t.* expansion.
			found := false
			for _, st := range sc.tabs {
				if st.alias == cr.Table || st.t.Name == cr.Table {
					for _, c := range st.t.Cols {
						cols = append(cols, c.Name)
						exprs = append(exprs, &sqlparser.ColRef{Table: st.alias, Column: c.Name})
					}
					found = true
					break
				}
			}
			if !found {
				return nil, nil, fmt.Errorf("sqldb: no table %s for %s.*", cr.Table, cr.Table)
			}
			continue
		}
		name := se.Alias
		if name == "" {
			if cr, ok := se.Expr.(*sqlparser.ColRef); ok {
				name = cr.Column
			} else {
				name = se.Expr.String()
			}
		}
		cols = append(cols, name)
		exprs = append(exprs, se.Expr)
	}
	return cols, exprs, nil
}

func (db *DB) projectRow(exprs []sqlparser.Expr, sc *scope, tup tuple, params []Value, agg map[string]Value) ([]Value, error) {
	row := make([]Value, len(exprs))
	for i, e := range exprs {
		ctx := &evalCtx{db: db, scope: sc, tup: tup, params: params, agg: agg}
		v, err := ctx.eval(e)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

func dedupRows(rows [][]Value) [][]Value {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		key := ""
		for _, v := range r {
			key += v.Key() + "\x1f"
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, r)
	}
	return out
}

func applyLimit(rows [][]Value, limit, offset *int64) [][]Value {
	if offset != nil {
		if int(*offset) >= len(rows) {
			return nil
		}
		rows = rows[*offset:]
	}
	if limit != nil && int(*limit) < len(rows) {
		rows = rows[:*limit]
	}
	return rows
}

//
// Grouped / aggregate SELECT.
//

type group struct {
	first tuple
	accs  []aggAcc
	key   string
	// keyVals caches the GROUP BY values for ordering.
}

func (db *DB) selectGrouped(s *sqlparser.SelectStmt, sc *scope, tuples []tuple, aggCalls []*sqlparser.FuncCall, params []Value) (*Result, error) {
	// Deduplicate aggregate calls by their printed form.
	uniq := make(map[string]int)
	var calls []*sqlparser.FuncCall
	for _, fc := range aggCalls {
		if _, ok := uniq[fc.String()]; !ok {
			uniq[fc.String()] = len(calls)
			calls = append(calls, fc)
		}
	}

	groups := make(map[string]*group)
	var order []string
	for _, tup := range tuples {
		ctx := &evalCtx{db: db, scope: sc, tup: tup, params: params}
		key := ""
		for _, g := range s.GroupBy {
			v, err := ctx.eval(g)
			if err != nil {
				return nil, err
			}
			key += v.Key() + "\x1f"
		}
		gr, ok := groups[key]
		if !ok {
			gr = &group{first: tup, key: key}
			for _, fc := range calls {
				acc, err := db.newAggAcc(fc)
				if err != nil {
					return nil, err
				}
				gr.accs = append(gr.accs, acc)
			}
			groups[key] = gr
			order = append(order, key)
		}
		for _, acc := range gr.accs {
			if err := acc.step(ctx); err != nil {
				return nil, err
			}
		}
	}

	// Aggregate query over zero rows with no GROUP BY yields one group
	// (COUNT(*) = 0 etc.).
	if len(groups) == 0 && len(s.GroupBy) == 0 {
		gr := &group{first: nil, key: ""}
		for _, fc := range calls {
			acc, err := db.newAggAcc(fc)
			if err != nil {
				return nil, err
			}
			gr.accs = append(gr.accs, acc)
		}
		groups[""] = gr
		order = append(order, "")
	}

	cols, projExprs, err := db.projectionPlan(s, sc)
	if err != nil {
		return nil, err
	}

	type groupRow struct {
		gr  *group
		agg map[string]Value
	}
	var gRows []groupRow
	for _, key := range order {
		gr := groups[key]
		aggVals := make(map[string]Value, len(calls))
		for i, fc := range calls {
			v, err := gr.accs[i].final()
			if err != nil {
				return nil, err
			}
			aggVals[fc.String()] = v
		}
		if s.Having != nil {
			ctx := &evalCtx{db: db, scope: sc, tup: gr.first, params: params, agg: aggVals}
			hv, err := ctx.eval(s.Having)
			if err != nil {
				return nil, err
			}
			if !hv.Truthy() {
				continue
			}
		}
		gRows = append(gRows, groupRow{gr: gr, agg: aggVals})
	}

	// ORDER BY over groups.
	if len(s.OrderBy) > 0 {
		items := db.resolveOrderBy(s)
		var sortErr error
		sort.SliceStable(gRows, func(i, j int) bool {
			for _, item := range items {
				ci := &evalCtx{db: db, scope: sc, tup: gRows[i].gr.first, params: params, agg: gRows[i].agg}
				cj := &evalCtx{db: db, scope: sc, tup: gRows[j].gr.first, params: params, agg: gRows[j].agg}
				vi, err := ci.eval(item.Expr)
				if err != nil {
					sortErr = err
					return false
				}
				vj, err := cj.eval(item.Expr)
				if err != nil {
					sortErr = err
					return false
				}
				c := compareForSort(vi, vj)
				if c == 0 {
					continue
				}
				if item.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}

	res := &Result{Columns: cols}
	for _, gr := range gRows {
		row, err := db.projectRow(projExprs, sc, gr.gr.first, params, gr.agg)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	if s.Distinct {
		res.Rows = dedupRows(res.Rows)
	}
	res.Rows = applyLimit(res.Rows, s.Limit, s.Offset)
	return res, nil
}

//
// Aggregate accumulators.
//

type aggAcc interface {
	step(ctx *evalCtx) error
	final() (Value, error)
}

func (db *DB) newAggAcc(fc *sqlparser.FuncCall) (aggAcc, error) {
	if factory, ok := db.aggUDFs[fc.Name]; ok {
		return &udfAcc{fc: fc, state: factory()}, nil
	}
	switch fc.Name {
	case "COUNT":
		if fc.Star {
			return &countStarAcc{}, nil
		}
		if fc.Distinct {
			return &countDistinctAcc{fc: fc, seen: map[string]bool{}}, nil
		}
		return &countAcc{fc: fc}, nil
	case "SUM":
		return &sumAcc{fc: fc}, nil
	case "AVG":
		return &avgAcc{fc: fc}, nil
	case "MIN":
		return &minMaxAcc{fc: fc, min: true}, nil
	case "MAX":
		return &minMaxAcc{fc: fc, min: false}, nil
	}
	return nil, fmt.Errorf("sqldb: unknown aggregate %s", fc.Name)
}

func evalAggArg(ctx *evalCtx, fc *sqlparser.FuncCall) (Value, error) {
	if len(fc.Args) != 1 {
		return Value{}, fmt.Errorf("sqldb: %s takes one argument", fc.Name)
	}
	return ctx.eval(fc.Args[0])
}

type countStarAcc struct{ n int64 }

func (a *countStarAcc) step(*evalCtx) error   { a.n++; return nil }
func (a *countStarAcc) final() (Value, error) { return Int(a.n), nil }

type countAcc struct {
	fc *sqlparser.FuncCall
	n  int64
}

func (a *countAcc) step(ctx *evalCtx) error {
	v, err := evalAggArg(ctx, a.fc)
	if err != nil {
		return err
	}
	if !v.IsNull() {
		a.n++
	}
	return nil
}
func (a *countAcc) final() (Value, error) { return Int(a.n), nil }

type countDistinctAcc struct {
	fc   *sqlparser.FuncCall
	seen map[string]bool
}

func (a *countDistinctAcc) step(ctx *evalCtx) error {
	v, err := evalAggArg(ctx, a.fc)
	if err != nil {
		return err
	}
	if !v.IsNull() {
		a.seen[v.Key()] = true
	}
	return nil
}
func (a *countDistinctAcc) final() (Value, error) { return Int(int64(len(a.seen))), nil }

type sumAcc struct {
	fc  *sqlparser.FuncCall
	sum int64
	any bool
}

func (a *sumAcc) step(ctx *evalCtx) error {
	v, err := evalAggArg(ctx, a.fc)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	n, err := v.AsInt()
	if err != nil {
		return err
	}
	a.sum += n
	a.any = true
	return nil
}
func (a *sumAcc) final() (Value, error) {
	if !a.any {
		return Null(), nil
	}
	return Int(a.sum), nil
}

type avgAcc struct {
	fc  *sqlparser.FuncCall
	sum int64
	n   int64
}

func (a *avgAcc) step(ctx *evalCtx) error {
	v, err := evalAggArg(ctx, a.fc)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	x, err := v.AsInt()
	if err != nil {
		return err
	}
	a.sum += x
	a.n++
	return nil
}
func (a *avgAcc) final() (Value, error) {
	if a.n == 0 {
		return Null(), nil
	}
	return Int(a.sum / a.n), nil
}

type minMaxAcc struct {
	fc   *sqlparser.FuncCall
	min  bool
	best Value
	any  bool
}

func (a *minMaxAcc) step(ctx *evalCtx) error {
	v, err := evalAggArg(ctx, a.fc)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	if !a.any {
		a.best = v
		a.any = true
		return nil
	}
	c, err := v.Compare(a.best)
	if err != nil {
		return err
	}
	if (a.min && c < 0) || (!a.min && c > 0) {
		a.best = v
	}
	return nil
}
func (a *minMaxAcc) final() (Value, error) {
	if !a.any {
		return Null(), nil
	}
	return a.best, nil
}

type udfAcc struct {
	fc    *sqlparser.FuncCall
	state AggState
}

func (a *udfAcc) step(ctx *evalCtx) error {
	args := make([]Value, len(a.fc.Args))
	for i, e := range a.fc.Args {
		v, err := ctx.eval(e)
		if err != nil {
			return err
		}
		args[i] = v
	}
	return a.state.Step(args)
}
func (a *udfAcc) final() (Value, error) { return a.state.Final() }
