package main

import (
	"math"
	"sort"
	"time"
)

// e2eMetric is one end-to-end metric: what a user of the system sees.
// bound is the share of the parent's median by which it may worsen
// before a change counts as a regression (mirrored in BENCHMARK.json).
type e2eMetric struct {
	name, unit, better string
	bound              float64
}

// endToEnd lists the metrics an untraced run reports. Failures are not a
// metric here because a passing run has none: they are the result line's
// "failed" out of "attempted", and failed_ratio is printed beside the
// metrics.
var endToEnd = []e2eMetric{
	{"throughput_ops", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MiB", "lower", 0.25},
	{"stored_mb", "MiB", "lower", 0.1},
}

// layerMetric is one per-layer metric of the traced run. moves names the
// end-to-end metric and workload it should move, written before any
// change measures it.
type layerMetric struct {
	name, unit, better, moves string
}

// tpccClasses and olapShapes are the statement labels of the two
// workload families, in display order. "join" and "range" occur in both:
// the label is read per workload.
var (
	tpccClasses = []string{"equality", "join", "range", "sum", "delete", "insert", "updset", "updinc"}
	olapShapes  = []string{"group", "join", "range", "minmax", "filter", "ingest", "trim"}
)

// statementLabels is the union of both label sets.
func statementLabels() []string {
	out := append([]string(nil), tpccClasses...)
	for _, s := range olapShapes {
		if !contains(out, s) {
			out = append(out, s)
		}
	}
	return out
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// proxyLabelMoves says what each statement label's proxy self time should
// move: HOM decryption (sum) and HOM encryption (updinc) sit in the tail,
// olap's shapes should barely use the proxy except ingest, which encrypts
// 100 rows.
func proxyLabelMoves(label string) string {
	switch label {
	case "sum", "updinc":
		return "latency_p99_ms on tpcc"
	case "ingest":
		return "throughput_ops on olap"
	case "join", "range":
		return "throughput_ops on tpcc; stays small on olap"
	}
	if contains(tpccClasses, label) {
		return "throughput_ops on tpcc"
	}
	return "stays small on olap (the proxy does little per row there)"
}

func storeLabelMoves(label string) string {
	t, o := contains(tpccClasses, label), contains(olapShapes, label)
	switch {
	case t && o:
		return "throughput_ops on tpcc, tpcc-plain, olap and olap-sharded"
	case t:
		return "throughput_ops on tpcc and tpcc-plain"
	}
	return "throughput_ops on olap and olap-sharded"
}

// perLayer lists every metric a traced run reports, named after the
// module that does the work. A metric that does not apply to a workload
// (proxy time on tpcc-plain, buffer-cache ratios on a resident engine,
// a label the workload never issues) reads 0.
var perLayer = func() []layerMetric {
	out := []layerMetric{
		{"proxy.self_us.p50", "us", "lower", "latency_p50_ms on tpcc"},
		{"proxy.self_us.p99", "us", "lower", "latency_p99_ms on tpcc"},
	}
	for _, l := range statementLabels() {
		out = append(out, layerMetric{"proxy.self_us." + l + ".p50", "us", "lower", proxyLabelMoves(l)})
	}
	out = append(out,
		layerMetric{"proxy.ast_cache.hit_ratio", "ratio", "higher", "throughput_ops on tpcc"},
		layerMetric{"proxy.store_calls_per_stmt", "count", "lower", "throughput_ops on tpcc"},
		layerMetric{"proxy.onion_adjustments", "count", "lower", "latency_p99_ms on tpcc, olap and olap-sharded (0 in steady state)"},
		layerMetric{"proxy.rows_returned_per_stmt", "count", "lower", "throughput_ops on olap"},
		layerMetric{"sqlparser.parse_us.p50", "us", "lower", "latency_p50_ms on tpcc-plain"},
		layerMetric{"store.exec_us.p50", "us", "lower", "latency_p50_ms on every workload"},
		layerMetric{"store.exec_us.p99", "us", "lower", "latency_p99_ms on every workload"},
	)
	for _, l := range statementLabels() {
		out = append(out, layerMetric{"store.exec_us." + l + ".p50", "us", "lower", storeLabelMoves(l)})
	}
	plan := "throughput_ops on olap, olap-sharded and tpcc (range class)"
	// The TPC-C pair's engines skip the per-commit fsync (see
	// tpccEngine), so the sync counters move on the olap pair only.
	walSync := "latency_p99_ms on olap and olap-sharded (0 on the TPC-C pair, which does not fsync)"
	pool := "throughput_ops on olap and olap-sharded"
	all := "throughput_ops on every workload"
	out = append(out,
		layerMetric{"store.busy_share", "ratio", "lower", "shows whether a workload is engine-bound; " + all},
		layerMetric{"sqldb.plan.full_scans_per_stmt", "count", "lower", plan},
		layerMetric{"sqldb.plan.eq_scans_per_stmt", "count", "higher", plan},
		layerMetric{"sqldb.plan.ordered_scans_per_stmt", "count", "higher", plan},
		layerMetric{"sqldb.plan.hash_joins_per_stmt", "count", "higher", plan},
		layerMetric{"sqldb.plan.parallel_pipelines_per_stmt", "count", "higher", plan},
		layerMetric{"sqldb.plan.morsels_per_stmt", "count", "higher", plan},
		layerMetric{"sqldb.plan.group_pushdowns_per_stmt", "count", "higher", plan},
		layerMetric{"sqldb.wal.commits_per_sync", "ratio", "higher", walSync},
		layerMetric{"sqldb.wal.bytes_per_write", "bytes", "lower", "throughput_ops and latency_p99_ms on tpcc and tpcc-plain"},
		layerMetric{"sqldb.wal.syncs_per_s", "1/s", "lower", walSync},
		layerMetric{"sqldb.checkpoint.count", "count", "lower", "latency_p99_ms on olap"},
		layerMetric{"sqldb.checkpoint.pause_ms", "ms", "lower", "latency_p99_ms on olap"},
		layerMetric{"sqldb.checkpoint.bytes", "bytes", "lower", "latency_p99_ms on olap"},
		layerMetric{"sqldb.bufpool.hit_ratio", "ratio", "higher", pool},
		layerMetric{"sqldb.bufpool.misses_per_stmt", "count", "lower", pool},
		layerMetric{"sqldb.bufpool.evictions_per_stmt", "count", "lower", pool},
		layerMetric{"go.alloc_kb_per_stmt", "KiB", "lower", all},
		layerMetric{"go.gc_cpu_fraction", "ratio", "lower", all},
		layerMetric{"setup.load_s", "s", "lower", "setup_s on every workload"},
		layerMetric{"setup.adjust_s", "s", "lower", "setup_s on the encrypted workloads"},
		layerMetric{"trace.overhead_ratio", "ratio", "higher", "none: traced over untraced throughput_ops, the cost of measuring"},
	)
	return out
}()

// quantile returns the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (the counter did not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
