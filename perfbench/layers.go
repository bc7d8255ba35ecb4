package main

import (
	"time"
)

// stmtTimes is one traced statement: its span and the time its child
// spans took.
type stmtTimes struct {
	label               string
	total, store, parse time.Duration
	storeCalls          int
}

// statements folds each session's spans into per-statement times.
func statements(recs []*recorder) []stmtTimes {
	var out []stmtTimes
	for _, r := range recs {
		idx := make(map[int]int) // stmt span index -> out index
		for i, s := range r.spans {
			d := s.end - s.start
			if s.parent < 0 {
				idx[i] = len(out)
				out = append(out, stmtTimes{label: s.label, total: d})
				continue
			}
			st := &out[idx[s.parent]]
			switch s.kind {
			case kindStore:
				st.store += d
				st.storeCalls++
			case kindParse:
				st.parse += d
			}
		}
	}
	return out
}

// layerMetrics computes every per-layer metric of a traced phase except
// the set-up and tracing ones, which the caller adds.
func layerMetrics(encrypted bool, recs []*recorder, ph phase, sessions int) map[string]float64 {
	out := make(map[string]float64)
	stmts := statements(recs)
	n := float64(len(stmts))

	var self, store, parse []time.Duration
	selfBy := make(map[string][]time.Duration)
	storeBy := make(map[string][]time.Duration)
	var storeBusy time.Duration
	calls := 0
	for _, s := range stmts {
		st := s.total - s.store - s.parse
		self = append(self, st)
		selfBy[s.label] = append(selfBy[s.label], st)
		store = append(store, s.store)
		storeBy[s.label] = append(storeBy[s.label], s.store)
		storeBusy += s.store
		calls += s.storeCalls
		if s.parse > 0 {
			parse = append(parse, s.parse)
		}
	}
	p50 := func(d []time.Duration) float64 {
		sortDurations(d)
		return us(quantile(d, 0.5))
	}
	if encrypted {
		sortDurations(self)
		out["proxy.self_us.p50"] = us(quantile(self, 0.5))
		out["proxy.self_us.p99"] = us(quantile(self, 0.99))
		for l, d := range selfBy {
			out["proxy.self_us."+l+".p50"] = p50(d)
		}
		b, a := ph.before.px, ph.after.px
		hits, misses := float64(a.ASTCacheHits-b.ASTCacheHits), float64(a.ASTCacheMisses-b.ASTCacheMisses)
		out["proxy.ast_cache.hit_ratio"] = ratio(hits, hits+misses)
		out["proxy.store_calls_per_stmt"] = ratio(float64(calls), n)
		out["proxy.onion_adjustments"] = float64(a.OnionAdjustments - b.OnionAdjustments)
		out["proxy.rows_returned_per_stmt"] = ratio(float64(ph.rows), float64(ph.stmts))
	}
	out["sqlparser.parse_us.p50"] = p50(parse)
	sortDurations(store)
	out["store.exec_us.p50"] = us(quantile(store, 0.5))
	out["store.exec_us.p99"] = us(quantile(store, 0.99))
	for l, d := range storeBy {
		out["store.exec_us."+l+".p50"] = p50(d)
	}
	out["store.busy_share"] = ratio(float64(storeBusy), float64(sessions)*float64(ph.wall))

	b, a := ph.before.eng, ph.after.eng
	perStmt := func(x, y int64) float64 { return ratio(float64(y-x), float64(ph.stmts)) }
	out["sqldb.plan.full_scans_per_stmt"] = perStmt(b.Plan.FullScans, a.Plan.FullScans)
	out["sqldb.plan.eq_scans_per_stmt"] = perStmt(b.Plan.EqScans, a.Plan.EqScans)
	out["sqldb.plan.ordered_scans_per_stmt"] = perStmt(b.Plan.OrderedScans, a.Plan.OrderedScans)
	out["sqldb.plan.hash_joins_per_stmt"] = perStmt(b.Plan.HashJoins, a.Plan.HashJoins)
	out["sqldb.plan.parallel_pipelines_per_stmt"] = perStmt(b.Plan.ParallelPipelines, a.Plan.ParallelPipelines)
	out["sqldb.plan.morsels_per_stmt"] = perStmt(b.Plan.Morsels, a.Plan.Morsels)
	out["sqldb.plan.group_pushdowns_per_stmt"] = perStmt(b.Plan.GroupPushdowns, a.Plan.GroupPushdowns)
	batches, syncs := float64(a.WAL.Batches-b.WAL.Batches), float64(a.WAL.Syncs-b.WAL.Syncs)
	out["sqldb.wal.commits_per_sync"] = ratio(batches, syncs)
	out["sqldb.wal.bytes_per_write"] = ratio(float64(a.WAL.Bytes-b.WAL.Bytes), batches)
	out["sqldb.wal.syncs_per_s"] = syncs / ph.wall.Seconds()
	out["sqldb.checkpoint.count"] = float64(a.WAL.Checkpoints - b.WAL.Checkpoints)
	out["sqldb.checkpoint.pause_ms"] = float64(a.CheckpointPauseNanos-b.CheckpointPauseNanos) / 1e6
	out["sqldb.checkpoint.bytes"] = float64(a.LastCheckpointBytes)
	hits, misses := float64(a.Cache.Hits-b.Cache.Hits), float64(a.Cache.Misses-b.Cache.Misses)
	out["sqldb.bufpool.hit_ratio"] = ratio(hits, hits+misses)
	out["sqldb.bufpool.misses_per_stmt"] = perStmt(b.Cache.Misses, a.Cache.Misses)
	out["sqldb.bufpool.evictions_per_stmt"] = perStmt(b.Cache.Evictions, a.Cache.Evictions)

	out["go.alloc_kb_per_stmt"] = ratio(float64(ph.after.alloc-ph.before.alloc)/1024, float64(ph.stmts))
	out["go.gc_cpu_fraction"] = ratio(ph.after.gcCPU-ph.before.gcCPU, ph.after.totalCPU-ph.before.totalCPU)
	return out
}
