// Scatter-gather reads.
//
// A SELECT that cannot be routed to one shard fans out to all of them in
// parallel and merges:
//
//   - Plain queries concatenate, or — when the query carries a server-side
//     ORDER BY (the proxy's OPE `ORDER BY ... LIMIT` path) — k-way merge in
//     sort order, with LIMIT pushed down so each shard's ordered index
//     terminates early and the coordinator reads at most k·LIMIT rows.
//   - Aggregates recombine from per-shard partials: COUNT sums, SUM sums,
//     MIN/MAX compare, AVG decomposes into per-shard SUM+COUNT, and
//     aggregate UDFs (hom_sum) re-apply over partials — for Paillier a
//     product of partial products, which is §3.1's server-side SUM spread
//     over shards. GROUP BY merges groups by key; HAVING, ORDER BY and
//     select-list expressions over aggregates evaluate post-merge on
//     combined values (AVG anywhere decomposes into hidden SUM+COUNT
//     columns and finalizes at the gather).
//   - Anything the planners cannot prove correct (joins across shards,
//     COUNT(DISTINCT)) runs once on a coordinator over borrowed shard
//     pages: each FROM table is the union of that table's pages on every
//     shard, resident pages by pointer and evicted ones faulted through
//     the owning shard's cache (sqldb.SelectUnion). The single-node
//     pipeline does the join; no row is copied.
//
// Scatter reads take no cross-shard snapshot: per-shard results reflect
// each shard's committed state at its own read time, the same
// read-committed view concurrent sessions already get within one sqldb
// instance. The union fallback reads one cut: it holds every shard's read
// lock, taken in shard order, for the whole statement.
package sharded

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/sqldb"
	"repro/internal/sqlparser"
)

func (c *Conn) execSelect(s *sqlparser.SelectStmt, params []sqldb.Value) (*sqldb.Result, error) {
	e := c.eng
	if len(e.shards) == 1 || len(s.From) == 0 {
		return c.session(0).Exec(s, params...)
	}
	if len(s.From) == 1 {
		if shard, ok := e.routeWhere(s.From[0].Table, s.Where, params, s.From[0].Alias); ok {
			return c.session(shard).Exec(s, params...)
		}
		if hasAgg := e.selectHasAgg(s); hasAgg || len(s.GroupBy) > 0 {
			if plan, ok := e.planAgg(s); ok {
				return c.runAgg(plan, params)
			}
		} else if plan, ok := e.planPlain(s); ok {
			return c.runPlain(plan, params)
		}
	}
	return c.gatherExec(s, params)
}

// scatter runs one statement on every shard in parallel through this
// connection's sessions (so a pinned transaction reads its own writes on
// its shard).
func (c *Conn) scatter(st *sqlparser.SelectStmt, params []sqldb.Value) ([]*sqldb.Result, error) {
	n := len(c.eng.shards)
	results := make([]*sqldb.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sess := c.session(i)
		wg.Add(1)
		go func(i int, sess *sqldb.Session) {
			defer wg.Done()
			results[i], errs[i] = sess.Exec(st, params...)
		}(i, sess)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

//
// Aggregate detection
//

var builtinAggs = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

func (e *Engine) isAgg(name string) bool {
	if builtinAggs[name] {
		return true
	}
	_, ok := e.aggUDF(name)
	return ok
}

func (e *Engine) containsAgg(ex sqlparser.Expr) bool {
	switch x := ex.(type) {
	case *sqlparser.FuncCall:
		if e.isAgg(x.Name) {
			return true
		}
		for _, a := range x.Args {
			if e.containsAgg(a) {
				return true
			}
		}
	case *sqlparser.BinaryExpr:
		return e.containsAgg(x.L) || e.containsAgg(x.R)
	case *sqlparser.UnaryExpr:
		return e.containsAgg(x.E)
	}
	return false
}

func (e *Engine) selectHasAgg(s *sqlparser.SelectStmt) bool {
	for _, se := range s.Exprs {
		if !se.Star && e.containsAgg(se.Expr) {
			return true
		}
	}
	if s.Having != nil && e.containsAgg(s.Having) {
		return true
	}
	for _, o := range s.OrderBy {
		if e.containsAgg(o.Expr) {
			return true
		}
	}
	return false
}

//
// Plain (non-aggregate) scatter
//

type plainPlan struct {
	perShard *sqlparser.SelectStmt
	visible  int // -1: every column is visible (no hidden merge keys)
	keys     []mergeKey
	distinct bool
	limit    *int64
	offset   *int64
}

type mergeKey struct {
	idx  int
	desc bool
}

// planPlain builds the per-shard statement and merge plan for a
// non-aggregate single-table SELECT. ok=false falls back to the union.
func (e *Engine) planPlain(s *sqlparser.SelectStmt) (*plainPlan, bool) {
	per := *s // shallow copy; slices replaced below where modified
	plan := &plainPlan{perShard: &per, visible: -1, distinct: s.Distinct, limit: s.Limit, offset: s.Offset}

	if len(s.OrderBy) > 0 {
		hasStar := false
		for _, se := range s.Exprs {
			if se.Star {
				hasStar = true
			} else if cr, ok := se.Expr.(*sqlparser.ColRef); ok && cr.Column == "*" {
				hasStar = true
			}
		}
		if hasStar {
			return nil, false // column arithmetic under a star is not worth guessing
		}
		exprs := append([]sqlparser.SelectExpr(nil), s.Exprs...)
		plan.visible = len(exprs)
		for _, item := range s.OrderBy {
			idx := visibleIndex(item.Expr, s.Exprs)
			if idx < 0 {
				idx = len(exprs)
				exprs = append(exprs, sqlparser.SelectExpr{Expr: item.Expr})
			}
			plan.keys = append(plan.keys, mergeKey{idx: idx, desc: item.Desc})
		}
		per.Exprs = exprs
	}

	// Push LIMIT down (absorbing OFFSET); the global cut happens at merge.
	// Exception: DISTINCT with hidden sort-key columns — each shard's
	// DISTINCT then runs over (visible, hidden) tuples, so rows that
	// collapse in the post-merge visible-prefix dedup would eat the
	// per-shard budget and starve the global result. Fetch everything and
	// cut after the merge instead.
	per.Limit, per.Offset = nil, nil
	if s.Limit != nil && !(s.Distinct && plan.visible >= 0 && len(per.Exprs) > plan.visible) {
		lim := *s.Limit
		if s.Offset != nil {
			lim += *s.Offset
		}
		per.Limit = &lim
	}
	return plan, true
}

// visibleIndex resolves an ORDER BY expression to a projected column: by
// select-list alias, or by textual equality with a projected expression.
func visibleIndex(ex sqlparser.Expr, items []sqlparser.SelectExpr) int {
	if cr, ok := ex.(*sqlparser.ColRef); ok && cr.Table == "" {
		for i, se := range items {
			if !se.Star && se.Alias == cr.Column {
				return i
			}
		}
	}
	str := ex.String()
	for i, se := range items {
		if !se.Star && se.Alias == "" && se.Expr.String() == str {
			return i
		}
	}
	return -1
}

func (c *Conn) runPlain(plan *plainPlan, params []sqldb.Value) (*sqldb.Result, error) {
	results, err := c.scatter(plan.perShard, params)
	if err != nil {
		return nil, err
	}
	var rows [][]sqldb.Value
	if len(plan.keys) == 0 {
		for _, r := range results {
			rows = append(rows, r.Rows...)
		}
	} else {
		rows = mergeOrdered(results, plan.keys)
	}

	visible := plan.visible
	if visible < 0 {
		visible = len(results[0].Columns)
	}
	if plan.distinct {
		rows = dedupPrefix(rows, visible)
	}
	rows = cutLimit(rows, plan.limit, plan.offset)
	for i, row := range rows {
		rows[i] = row[:visible]
	}
	return &sqldb.Result{Columns: results[0].Columns[:visible], Rows: rows}, nil
}

// mergeOrdered k-way merges per-shard sorted results, ties broken by shard
// index so the merge is deterministic.
func mergeOrdered(results []*sqldb.Result, keys []mergeKey) [][]sqldb.Value {
	pos := make([]int, len(results))
	var out [][]sqldb.Value
	for {
		best := -1
		for i, r := range results {
			if pos[i] >= len(r.Rows) {
				continue
			}
			if best < 0 || keyLess(r.Rows[pos[i]], results[best].Rows[pos[best]], keys) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, results[best].Rows[pos[best]])
		pos[best]++
	}
}

func keyLess(a, b []sqldb.Value, keys []mergeKey) bool {
	for _, k := range keys {
		cmp := sqldb.SortCompare(a[k.idx], b[k.idx])
		if cmp == 0 {
			continue
		}
		if k.desc {
			return cmp > 0
		}
		return cmp < 0
	}
	return false
}

func dedupPrefix(rows [][]sqldb.Value, visible int) [][]sqldb.Value {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		key := ""
		for _, v := range r[:visible] {
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

func cutLimit(rows [][]sqldb.Value, limit, offset *int64) [][]sqldb.Value {
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
// Aggregate scatter
//

const (
	outPlain = iota
	outCount
	outSum
	outMin
	outMax
	outAvg
	outUDF
)

// aggCol describes one per-shard result column and how partials combine.
type aggCol struct {
	kind int
	udf  sqldb.AggUDF // outUDF
}

// aggOut maps one output column of the original query onto merged columns.
type aggOut struct {
	name string
	src  int // merged column (plain value or combined aggregate)
	sum  int // avg: per-shard SUM column
	cnt  int // avg: per-shard COUNT column
	avg  bool
	post *postRef // expression over aggregates, evaluated post-merge
}

type postRef struct {
	expr sqlparser.Expr
	idx  []refBinding // substitutions into the merged row
}

type refBinding struct {
	key string // FuncCall.String() or ColRef.String()
	agg bool
	idx int
	avg bool // AVG: finalize sum/cnt instead of reading idx
	sum int
	cnt int
}

type aggPlan struct {
	perShard *sqlparser.SelectStmt
	cols     []aggCol // one per per-shard column
	outs     []aggOut
	groupIdx []int
	having   *postRef
	orderBy  []postOrder
	distinct bool
	limit    *int64
	offset   *int64
}

type postOrder struct {
	idx  int
	avg  *aggOut
	ref  *postRef // aggregate expression evaluated post-merge
	desc bool
}

// planAgg builds the per-shard statement and recombination plan for an
// aggregate / GROUP BY SELECT. ok=false falls back to the union.
func (e *Engine) planAgg(s *sqlparser.SelectStmt) (*aggPlan, bool) {
	plan := &aggPlan{distinct: s.Distinct, limit: s.Limit, offset: s.Offset}
	var items []sqlparser.SelectExpr

	// addItem appends (or reuses) a per-shard projection column.
	byString := make(map[string]int)
	addItem := func(se sqlparser.SelectExpr, col aggCol) int {
		key := se.Expr.String()
		if se.Alias == "" {
			if idx, ok := byString[key]; ok {
				return idx
			}
		}
		idx := len(items)
		items = append(items, se)
		plan.cols = append(plan.cols, col)
		if se.Alias == "" {
			byString[key] = idx
		}
		return idx
	}

	// aggColFor classifies one aggregate call, or fails.
	aggColFor := func(fc *sqlparser.FuncCall) (aggCol, bool) {
		if fc.Distinct {
			return aggCol{}, false // COUNT(DISTINCT) needs the values, not counts
		}
		switch fc.Name {
		case "COUNT":
			return aggCol{kind: outCount}, true
		case "SUM":
			return aggCol{kind: outSum}, true
		case "MIN":
			return aggCol{kind: outMin}, true
		case "MAX":
			return aggCol{kind: outMax}, true
		case "AVG":
			return aggCol{}, false // decomposed by the caller
		}
		if fn, ok := e.aggUDF(fc.Name); ok {
			return aggCol{kind: outUDF, udf: fn}, true
		}
		return aggCol{}, false
	}

	// addAvg appends the hidden SUM+COUNT pair an AVG decomposes into.
	addAvg := func(fc *sqlparser.FuncCall) (sumIdx, cntIdx int, ok bool) {
		if fc.Star || fc.Distinct || len(fc.Args) != 1 {
			return 0, 0, false
		}
		sumIdx = addItem(sqlparser.SelectExpr{Expr: &sqlparser.FuncCall{Name: "SUM", Args: fc.Args}}, aggCol{kind: outSum})
		cntIdx = addItem(sqlparser.SelectExpr{Expr: &sqlparser.FuncCall{Name: "COUNT", Args: fc.Args}}, aggCol{kind: outCount})
		return sumIdx, cntIdx, true
	}

	// resolve binds a HAVING / ORDER BY / select-list subexpression to
	// merged columns, appending hidden aggregate columns as needed (AVG
	// becomes a hidden SUM+COUNT pair finalized at the gather). ok=false on
	// anything unresolvable (unknown function, column not
	// grouped/projected).
	var resolve func(ex sqlparser.Expr, refs *[]refBinding) bool
	resolve = func(ex sqlparser.Expr, refs *[]refBinding) bool {
		switch x := ex.(type) {
		case *sqlparser.FuncCall:
			if !e.isAgg(x.Name) {
				return false
			}
			if x.Name == "AVG" {
				sumIdx, cntIdx, ok := addAvg(x)
				if !ok {
					return false
				}
				*refs = append(*refs, refBinding{key: x.String(), agg: true, avg: true, sum: sumIdx, cnt: cntIdx})
				return true
			}
			col, ok := aggColFor(x)
			if !ok {
				return false
			}
			idx := addItem(sqlparser.SelectExpr{Expr: x}, col)
			*refs = append(*refs, refBinding{key: x.String(), agg: true, idx: idx})
			return true
		case *sqlparser.ColRef:
			// Select-list alias?
			if x.Table == "" {
				for i, se := range s.Exprs {
					if !se.Star && se.Alias == x.Column && i < len(plan.outs) {
						out := plan.outs[i]
						if out.post != nil {
							return false
						}
						if out.avg {
							*refs = append(*refs, refBinding{key: x.String(), agg: true, avg: true, sum: out.sum, cnt: out.cnt})
						} else {
							*refs = append(*refs, refBinding{key: x.String(), idx: out.src})
						}
						return true
					}
				}
			}
			str := x.String()
			for i, it := range items {
				if plan.cols[i].kind == outPlain && it.Alias == "" && it.Expr.String() == str {
					*refs = append(*refs, refBinding{key: str, idx: i})
					return true
				}
			}
			return false
		case *sqlparser.BinaryExpr:
			return resolve(x.L, refs) && resolve(x.R, refs)
		case *sqlparser.UnaryExpr:
			return resolve(x.E, refs)
		case *sqlparser.IntLit, *sqlparser.StrLit, *sqlparser.BytesLit,
			*sqlparser.NullLit, *sqlparser.BoolLit, *sqlparser.Param:
			return true
		}
		return false
	}

	// Output columns.
	for _, se := range s.Exprs {
		if se.Star {
			return nil, false
		}
		if cr, ok := se.Expr.(*sqlparser.ColRef); ok && cr.Column == "*" {
			return nil, false
		}
		name := se.Alias
		if name == "" {
			if cr, ok := se.Expr.(*sqlparser.ColRef); ok {
				name = cr.Column
			} else {
				name = se.Expr.String()
			}
		}
		if fc, ok := se.Expr.(*sqlparser.FuncCall); ok && e.isAgg(fc.Name) {
			if fc.Name == "AVG" {
				sumIdx, cntIdx, ok := addAvg(fc)
				if !ok {
					return nil, false
				}
				plan.outs = append(plan.outs, aggOut{name: name, avg: true, sum: sumIdx, cnt: cntIdx})
				continue
			}
			col, ok := aggColFor(fc)
			if !ok {
				return nil, false
			}
			idx := addItem(sqlparser.SelectExpr{Expr: se.Expr, Alias: se.Alias}, col)
			plan.outs = append(plan.outs, aggOut{name: name, src: idx})
			continue
		}
		if e.containsAgg(se.Expr) {
			// Expression over aggregates: bind every aggregate call and
			// column to merged columns, evaluate the expression post-merge.
			ref := &postRef{expr: se.Expr}
			if !resolve(se.Expr, &ref.idx) {
				return nil, false
			}
			plan.outs = append(plan.outs, aggOut{name: name, post: ref})
			continue
		}
		idx := addItem(sqlparser.SelectExpr{Expr: se.Expr, Alias: se.Alias}, aggCol{kind: outPlain})
		plan.outs = append(plan.outs, aggOut{name: name, src: idx})
	}

	// Group identity: every GROUP BY expression must be a merged column.
	for _, g := range s.GroupBy {
		if e.containsAgg(g) {
			return nil, false
		}
		idx := addItem(sqlparser.SelectExpr{Expr: g}, aggCol{kind: outPlain})
		plan.groupIdx = append(plan.groupIdx, idx)
	}

	if s.Having != nil {
		ref := &postRef{expr: s.Having}
		if !resolve(s.Having, &ref.idx) {
			return nil, false
		}
		plan.having = ref
	}
	for _, o := range s.OrderBy {
		// ORDER BY over merged values: an aggregate expression, an alias,
		// or a grouped/projected column.
		if e.containsAgg(o.Expr) {
			ref := &postRef{expr: o.Expr}
			if !resolve(o.Expr, &ref.idx) {
				return nil, false
			}
			plan.orderBy = append(plan.orderBy, postOrder{ref: ref, desc: o.Desc})
			continue
		}
		if cr, ok := o.Expr.(*sqlparser.ColRef); ok && cr.Table == "" {
			if i := aliasOut(s, plan, cr.Column); i != nil {
				switch {
				case i.post != nil:
					plan.orderBy = append(plan.orderBy, postOrder{ref: i.post, desc: o.Desc})
				case i.avg:
					plan.orderBy = append(plan.orderBy, postOrder{avg: i, desc: o.Desc})
				default:
					plan.orderBy = append(plan.orderBy, postOrder{idx: i.src, desc: o.Desc})
				}
				continue
			}
		}
		idx := -1
		str := o.Expr.String()
		for i, it := range items {
			if plan.cols[i].kind == outPlain && it.Alias == "" && it.Expr.String() == str {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, false
		}
		plan.orderBy = append(plan.orderBy, postOrder{idx: idx, desc: o.Desc})
	}

	plan.perShard = &sqlparser.SelectStmt{
		Exprs:   items,
		From:    s.From,
		Where:   s.Where,
		GroupBy: s.GroupBy,
	}
	return plan, true
}

// aliasOut finds the output column a bare name aliases.
func aliasOut(s *sqlparser.SelectStmt, plan *aggPlan, name string) *aggOut {
	for i, se := range s.Exprs {
		if !se.Star && se.Alias == name {
			return &plan.outs[i]
		}
	}
	return nil
}

// mergedGroup is one group being recombined across shards.
type mergedGroup struct {
	vals []sqldb.Value
	udfs map[int]sqldb.AggState
}

func (c *Conn) runAgg(plan *aggPlan, params []sqldb.Value) (*sqldb.Result, error) {
	if len(plan.groupIdx) > 0 {
		atomic.AddInt64(&c.eng.groupPushdowns, 1)
	}
	results, err := c.scatter(plan.perShard, params)
	if err != nil {
		return nil, err
	}

	groups := make(map[string]*mergedGroup)
	var order []string
	for _, r := range results {
		for _, row := range r.Rows {
			key := ""
			for _, gi := range plan.groupIdx {
				key += row[gi].Key() + "\x1f"
			}
			g := groups[key]
			if g == nil {
				g = &mergedGroup{vals: append([]sqldb.Value(nil), row...)}
				for i, col := range plan.cols {
					if col.kind == outUDF {
						if g.udfs == nil {
							g.udfs = make(map[int]sqldb.AggState)
						}
						st := col.udf()
						if err := st.Step([]sqldb.Value{row[i]}); err != nil {
							return nil, err
						}
						g.udfs[i] = st
					}
				}
				groups[key] = g
				order = append(order, key)
				continue
			}
			for i, col := range plan.cols {
				if err := combinePartial(g, i, col, row[i]); err != nil {
					return nil, err
				}
			}
		}
	}

	// Finalize UDF accumulators into the merged rows.
	for _, key := range order {
		g := groups[key]
		for i, st := range g.udfs {
			v, err := st.Final()
			if err != nil {
				return nil, err
			}
			g.vals[i] = v
		}
	}

	rows := make([][]sqldb.Value, 0, len(order))
	for _, key := range order {
		g := groups[key]
		if plan.having != nil {
			keep, err := evalPost(plan.having, g.vals, params)
			if err != nil {
				return nil, err
			}
			if !keep.Truthy() {
				continue
			}
		}
		rows = append(rows, g.vals)
	}

	if len(plan.orderBy) > 0 {
		if err := sortMerged(rows, plan.orderBy, params); err != nil {
			return nil, err
		}
	}

	out := &sqldb.Result{}
	for _, o := range plan.outs {
		out.Columns = append(out.Columns, o.name)
	}
	for _, row := range rows {
		final := make([]sqldb.Value, len(plan.outs))
		for i, o := range plan.outs {
			switch {
			case o.post != nil:
				v, err := evalPost(o.post, row, params)
				if err != nil {
					return nil, err
				}
				final[i] = v
			case o.avg:
				final[i] = avgFinal(row[o.sum], row[o.cnt])
			default:
				final[i] = row[o.src]
			}
		}
		out.Rows = append(out.Rows, final)
	}
	if plan.distinct {
		out.Rows = dedupPrefix(out.Rows, len(plan.outs))
	}
	out.Rows = cutLimit(out.Rows, plan.limit, plan.offset)
	return out, nil
}

// combinePartial folds one shard's partial into the group.
func combinePartial(g *mergedGroup, i int, col aggCol, v sqldb.Value) error {
	switch col.kind {
	case outPlain:
		// Group-key columns are equal by construction; a bare non-grouped
		// column keeps the first shard's value (first-tuple semantics).
		return nil
	case outCount, outSum:
		if v.IsNull() {
			return nil
		}
		if g.vals[i].IsNull() {
			g.vals[i] = v
			return nil
		}
		a, err := g.vals[i].AsInt()
		if err != nil {
			return err
		}
		b, err := v.AsInt()
		if err != nil {
			return err
		}
		g.vals[i] = sqldb.Int(a + b)
	case outMin, outMax:
		if v.IsNull() {
			return nil
		}
		if g.vals[i].IsNull() {
			g.vals[i] = v
			return nil
		}
		cmp, err := v.Compare(g.vals[i])
		if err != nil {
			cmp = sqldb.SortCompare(v, g.vals[i])
		}
		if (col.kind == outMin && cmp < 0) || (col.kind == outMax && cmp > 0) {
			g.vals[i] = v
		}
	case outUDF:
		return g.udfs[i].Step([]sqldb.Value{v})
	}
	return nil
}

func avgFinal(sum, cnt sqldb.Value) sqldb.Value {
	if sum.IsNull() || cnt.IsNull() {
		return sqldb.Null()
	}
	n, err := cnt.AsInt()
	if err != nil || n == 0 {
		return sqldb.Null()
	}
	s, err := sum.AsInt()
	if err != nil {
		return sqldb.Null()
	}
	return sqldb.Int(s / n)
}

// evalPost evaluates a HAVING / select-list / ORDER BY expression against
// a merged row by substituting its bound references with literals. AVG
// bindings finalize their hidden SUM+COUNT pair here.
func evalPost(ref *postRef, row []sqldb.Value, params []sqldb.Value) (sqldb.Value, error) {
	bind := make(map[string]sqldb.Value, len(ref.idx))
	for _, b := range ref.idx {
		if b.avg {
			bind[b.key] = avgFinal(row[b.sum], row[b.cnt])
		} else {
			bind[b.key] = row[b.idx]
		}
	}
	sub := substitute(ref.expr, bind)
	return sqldb.EvalConst(sub, params)
}

// substitute replaces bound aggregate calls and column references with
// value literals.
func substitute(ex sqlparser.Expr, bind map[string]sqldb.Value) sqlparser.Expr {
	if v, ok := bind[ex.String()]; ok {
		switch ex.(type) {
		case *sqlparser.FuncCall, *sqlparser.ColRef:
			return exprFromValue(v)
		}
	}
	switch x := ex.(type) {
	case *sqlparser.BinaryExpr:
		return &sqlparser.BinaryExpr{Op: x.Op, L: substitute(x.L, bind), R: substitute(x.R, bind)}
	case *sqlparser.UnaryExpr:
		return &sqlparser.UnaryExpr{Op: x.Op, E: substitute(x.E, bind)}
	}
	return ex
}

func sortMerged(rows [][]sqldb.Value, keys []postOrder, params []sqldb.Value) error {
	// Materialize the key values first: post-merge expressions can fail,
	// and sort comparators cannot return errors.
	keyVals := make([][]sqldb.Value, len(rows))
	for i, row := range rows {
		ks := make([]sqldb.Value, len(keys))
		for j, k := range keys {
			switch {
			case k.ref != nil:
				v, err := evalPost(k.ref, row, params)
				if err != nil {
					return err
				}
				ks[j] = v
			case k.avg != nil:
				ks[j] = avgFinal(row[k.avg.sum], row[k.avg.cnt])
			default:
				ks[j] = row[k.idx]
			}
		}
		keyVals[i] = ks
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		a, b := keyVals[idx[i]], keyVals[idx[j]]
		for kI, k := range keys {
			cmp := sqldb.SortCompare(a[kI], b[kI])
			if cmp == 0 {
				continue
			}
			if k.desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	sorted := make([][]sqldb.Value, len(rows))
	for i, p := range idx {
		sorted[i] = rows[p]
	}
	copy(rows, sorted)
	return nil
}

//
// Union fallback
//

// gatherExec runs a SELECT the scatter planners cannot split (joins across
// shards, COUNT(DISTINCT), ...) once, on a coordinator whose every FROM
// table is the union of that table's shard pages (sqldb.SelectUnion): the
// compiled, morsel-parallel pipeline reads the shards' pages in place, so
// nothing is copied or re-indexed. The statement holds every shard's read
// lock, taken in shard order, and reads one consistent cut of the shards.
// A transaction pinned to a shard contributes its merged view there, so it
// reads its own writes.
func (c *Conn) gatherExec(s *sqlparser.SelectStmt, params []sqldb.Value) (*sqldb.Result, error) {
	sessions := make([]*sqldb.Session, len(c.eng.shards))
	for i := range sessions {
		sessions[i] = c.session(i)
	}
	return c.eng.coord.SelectUnion(sessions, s, params)
}
