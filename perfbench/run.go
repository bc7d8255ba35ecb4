package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/proxy"
	"repro/internal/sqldb"
	"repro/internal/store"
)

// model is one workload family's data, statement streams and checks.
// Every input derives from the seed the model was built with.
type model interface {
	// schema is the DDL load issues first.
	schema() []string
	// trainQueries are the statement shapes the proxy is trained on: the
	// timed statements' shapes plus the checks'.
	trainQueries() []proxy.TrainQuery
	// load creates the schema and loads the rows through l.
	load(l *batchLoader) error
	// warmup issues one statement per label, so every onion adjustment
	// happens during set-up.
	warmup() []op
	// client returns the statement stream of one session.
	client(session int) opSource
	// settle returns the statements a session issues after the timed
	// phase to bring the data back to its invariant state.
	settle(src opSource) []op
	// checks are the post-run invariants.
	checks() []op
	// probes are plaintexts from the generated data that must never
	// appear in stored values.
	probes() []string
}

// opSource is one session's closed-loop statement stream.
type opSource interface{ next() op }

// op is one statement and what its reply must satisfy.
type op struct {
	label  string
	sql    string
	params []sqldb.Value
	// check validates a successful reply (nil accepts any).
	check func(*sqldb.Result) error
	// settled runs once the statement has returned, whatever the outcome.
	settled func()
}

// workload binds a model to the engine and front end it runs on.
type workload struct {
	name      string
	encrypted bool
	kind      func(scale) engineKind
	newModel  func(sc scale, seed int64, sessions int) model
}

// tpccEngine is the TPC-C pair's store: resident, and durable in its data
// directory, but without an fsync per commit. With one, tpcc-plain waits
// on the fsync for about half of every statement, so its figures follow
// the shared disk's latency (run-to-run spread above 0.3) rather than the
// program. Both TPC-C workloads use it, so their ratio stays fair.
func tpccEngine(scale) engineKind { return engineKind{shards: 1, noFsync: true} }

var workloads = map[string]*workload{
	"tpcc": {
		name: "tpcc", encrypted: true,
		kind:     tpccEngine,
		newModel: newTPCCModel,
	},
	"tpcc-plain": {
		name: "tpcc-plain", encrypted: false,
		kind:     tpccEngine,
		newModel: newTPCCModel,
	},
	"olap": {
		name: "olap", encrypted: true,
		kind:     func(sc scale) engineKind { return engineKind{paged: true, shards: 1, cacheBytes: sc.olap.cacheBytes} },
		newModel: newOLAPModel,
	},
	"olap-sharded": {
		name: "olap-sharded", encrypted: true,
		kind:     func(sc scale) engineKind { return engineKind{paged: true, shards: 4, cacheBytes: sc.olap.cacheBytes} },
		newModel: newOLAPModel,
	},
}

// client is one closed-loop session: it sends its next statement only
// after the previous reply.
type client struct {
	ex    executor
	src   opSource
	rec   *recorder
	epoch time.Time

	lat      []time.Duration
	ends     []time.Duration // completion of each statement, from epoch
	failed   int
	rows     int
	firstErr error
}

func (c *client) step(o op) {
	c.rec.begin(o.label)
	t0 := time.Now()
	res, err := c.ex.exec(o.sql, o.params)
	d := time.Since(t0)
	c.rec.end()
	if o.settled != nil {
		o.settled()
	}
	if err == nil && o.check != nil {
		err = o.check(res)
	}
	c.lat = append(c.lat, d)
	c.ends = append(c.ends, time.Since(c.epoch))
	if res != nil {
		c.rows += len(res.Rows)
	}
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("%s: %s: %w", o.label, prefix(o.sql, 120), err)
		}
	}
}

// phase is one timed stretch of closed-loop traffic.
type phase struct {
	wall          time.Duration
	stmts, rows   int
	lat           []time.Duration // sorted
	windows       []window
	before, after snapshot
}

// window is one slice of a phase, by statement completion time.
type window struct {
	tput     float64
	p50, p99 time.Duration
}

// minWindowStmts is the fewest statements a window holds, so that at
// least ten lie beyond its p99; maxWindows caps the split.
const (
	minWindowStmts = 1000
	maxWindows     = 10
)

// runPhase drives every client until the deadline and waits for them.
func runPhase(in *instance, clients []*client, seconds float64) phase {
	var ph phase
	ph.before = takeSnapshot(in)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	ends := make([]time.Time, len(clients))
	nBefore := make([]int, len(clients))
	for i, c := range clients {
		nBefore[i] = len(c.lat)
		ph.rows -= c.rows
	}
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			if in.timed != nil {
				in.timed.bindGoroutine(c.rec)
				defer in.timed.unbindGoroutine()
			}
			for time.Now().Before(deadline) {
				c.step(c.src.next())
			}
			ends[i] = time.Now()
		}(i, c)
	}
	wg.Wait()
	last := start
	for _, e := range ends {
		if e.After(last) {
			last = e
		}
	}
	ph.wall = last.Sub(start)
	ph.after = takeSnapshot(in)

	var done []time.Duration
	for i, c := range clients {
		ph.lat = append(ph.lat, c.lat[nBefore[i]:]...)
		for _, e := range c.ends[nBefore[i]:] {
			done = append(done, e-start.Sub(c.epoch))
		}
		ph.rows += c.rows
	}
	ph.stmts = len(ph.lat)
	ph.windows = windows(ph.lat, done, ph.wall)
	sortDurations(ph.lat)
	return ph
}

// windows splits a phase into equal stretches of time, as many as keep
// minWindowStmts statements each on average, and measures each.
func windows(lat, done []time.Duration, wall time.Duration) []window {
	k := min(max(len(lat)/minWindowStmts, 1), maxWindows)
	width := wall / time.Duration(k)
	byWin := make([][]time.Duration, k)
	for i, d := range lat {
		w := min(max(int(done[i]/width), 0), k-1)
		byWin[w] = append(byWin[w], d)
	}
	out := make([]window, k)
	for i, l := range byWin {
		sortDurations(l)
		out[i] = window{tput: float64(len(l)) / width.Seconds(), p50: quantile(l, 0.5), p99: quantile(l, 0.99)}
	}
	return out
}

// medianOf is the median over windows of one window measure.
func medianOf(ws []window, f func(window) float64) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	return median(xs)
}

// snapshot is the counters a phase is measured by.
type snapshot struct {
	eng      store.Stats
	px       proxy.Stats
	alloc    uint64
	gcCPU    float64
	totalCPU float64
}

func takeSnapshot(in *instance) snapshot {
	var s snapshot
	s.eng = in.eng.Stats()
	if in.px != nil {
		s.px = in.px.Stats()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.alloc = ms.TotalAlloc
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	return s
}

// tally counts every statement and check of a run toward the result line.
type tally struct {
	attempted, failed int
	errs              []error
}

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 10 {
			t.errs = append(t.errs, err)
		}
	}
}

// runOps executes ops on a fresh session and checks each reply.
func runOps(in *instance, ops []op, t *tally) {
	ex := in.newExecutor(nil)
	defer ex.close()
	c := &client{ex: ex}
	for _, o := range ops {
		c.failed, c.firstErr = 0, nil
		c.step(o)
		t.add(c.firstErr)
	}
}

// setUp builds one copy of the workload in an empty directory: train the
// proxy, open the engine, create the schema, load, and warm up every
// onion adjustment. The returned times exclude nothing but the build.
func setUp(cfg runConfig, dir string) (*instance, model, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	w := cfg.workload
	m := w.newModel(cfg.scale, cfg.seed, sessions)
	in := &instance{dir: dir, kind: w.kind(cfg.scale)}
	if w.encrypted {
		plan, err := proxy.TrainPlan(m.schema(), m.trainQueries())
		if err != nil {
			return nil, nil, st, fmt.Errorf("training: %w", err)
		}
		in.opts = proxy.Options{DataDir: dir, Plan: plan}
	}
	if err := in.connect(cfg.traced); err != nil {
		return nil, nil, st, err
	}
	tl := time.Now()
	ex := in.newExecutor(nil)
	bl := newBatchLoader(ex, 250)
	err := m.load(bl)
	if err == nil {
		err = bl.flush()
	}
	ex.close()
	if err != nil {
		in.close()
		return nil, nil, st, err
	}
	st.load = time.Since(tl)
	st.rows, st.plainBytes = bl.rows, bl.plainSize
	ta := time.Now()
	var t tally
	runOps(in, m.warmup(), &t)
	if t.failed > 0 {
		in.close()
		return nil, nil, st, fmt.Errorf("warm-up: %v", t.errs[0])
	}
	st.adjust = time.Since(ta)
	st.total = time.Since(t0)
	return in, m, st, nil
}

// run executes one benchmark run and returns what it measured.
func run(cfg runConfig) (*result, error) {
	base := filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d-pid%d", cfg.workload.name, cfg.seed, os.Getpid()))
	if err := os.RemoveAll(base); err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	var (
		in     *instance
		m      model
		setups []setupTimes
	)
	var spent time.Duration
	for i := 0; ; i++ {
		dir := filepath.Join(base, fmt.Sprintf("setup%d", i))
		inst, mod, st, err := setUp(cfg, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, st)
		spent += st.total
		more := i+1 < cfg.setups || (i+1 < maxSetups*cfg.setups && spent < cfg.setupBudget)
		if !more {
			in, m = inst, mod
			break
		}
		if err := inst.close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	size := sizeStats{
		Shards:    in.kind.shards,
		Encrypted: cfg.workload.encrypted,
		StoredMiB: float64(in.eng.Stats().SizeBytes) / (1 << 20),
	}
	if in.kind.paged {
		size.CacheMiB = float64(in.kind.cacheBytes) / (1 << 20)
	}
	last := setups[len(setups)-1]
	size.Rows, size.PlaintextMiB = last.rows, float64(last.plainBytes)/(1<<20)

	epoch := time.Now()
	clients := make([]*client, sessions)
	for i := range clients {
		rec := newRecorder(i, epoch)
		rec.on = cfg.traced
		clients[i] = &client{ex: in.newExecutor(rec), src: m.client(i), rec: rec, epoch: epoch}
	}
	// A traced run spends half its time traced and half untraced, to
	// measure what tracing costs.
	var timed, untraced phase
	if cfg.traced {
		timed = runPhase(in, clients, cfg.seconds/2)
		for _, c := range clients {
			c.rec.on = false
		}
		untraced = runPhase(in, clients, cfg.seconds/2)
	} else {
		timed = runPhase(in, clients, cfg.seconds)
	}

	// Each session settles what it left unbalanced; these statements are
	// checked and counted like the timed ones.
	var t tally
	for _, c := range clients {
		for _, o := range m.settle(c.src) {
			c.step(o)
		}
		t.attempted += len(c.lat)
		t.failed += c.failed
		if c.firstErr != nil {
			t.errs = append(t.errs, c.firstErr)
		}
	}

	size.StatementsRun = t.attempted
	setupS := make([]float64, len(setups))
	loadS := make([]float64, len(setups))
	adjustS := make([]float64, len(setups))
	for i, s := range setups {
		setupS[i], loadS[i], adjustS[i] = s.total.Seconds(), s.load.Seconds(), s.adjust.Seconds()
	}
	// Throughput and latency are medians over the phase's windows, which
	// keeps a burst of outside load in one window from moving them.
	// stored_mb is the data set as set up: measured after the run it would
	// grow with the inserts a faster program completes.
	tput := func(w window) float64 { return w.tput }
	e2e := map[string]float64{
		"throughput_ops": medianOf(timed.windows, tput),
		"latency_p50_ms": medianOf(timed.windows, func(w window) float64 { return ms(w.p50) }),
		"latency_p99_ms": medianOf(timed.windows, func(w window) float64 { return ms(w.p99) }),
		"setup_s":        median(setupS),
		"stored_mb":      size.StoredMiB,
	}
	// The live heap is the program's: the benchmark's own samples go first.
	for _, c := range clients {
		c.lat, c.ends = nil, nil
	}
	timed.lat = nil
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	e2e["heap_mb"] = float64(mem.HeapAlloc) / (1 << 20)

	for _, c := range clients {
		err := c.ex.close()
		if err != nil {
			err = fmt.Errorf("closing session: %w", err)
		}
		t.add(err)
	}
	runOps(in, m.checks(), &t)

	// Durability: reopen engine and proxy from the data directory as a
	// restarted server would, and re-check the invariants.
	if err := in.close(); err != nil {
		return nil, fmt.Errorf("closing engine: %w", err)
	}
	if err := in.connect(false); err != nil {
		return nil, fmt.Errorf("reopening: %w", err)
	}
	runOps(in, m.checks(), &t)
	if cfg.workload.encrypted {
		t.add(findPlaintext(in.eng, m.probes()))
	}
	if err := in.close(); err != nil {
		return nil, fmt.Errorf("closing reopened engine: %w", err)
	}

	res := &result{correct: t.failed == 0, attempted: t.attempted, failed: t.failed, metrics: map[string]metricValue{}}
	if cfg.traced {
		var recs []*recorder
		for _, c := range clients {
			recs = append(recs, c.rec)
		}
		lm := layerMetrics(cfg.workload.encrypted, recs, timed, sessions)
		lm["setup.load_s"] = median(loadS)
		lm["setup.adjust_s"] = median(adjustS)
		lm["trace.overhead_ratio"] = ratio(medianOf(timed.windows, tput), medianOf(untraced.windows, tput))
		for _, d := range perLayer {
			res.metrics[d.name] = metricValue{Value: lm[d.name], Unit: d.unit}
		}
		path := filepath.Join(cfg.work, "traces", fmt.Sprintf("%s-seed%d.tsv", cfg.workload.name, cfg.seed))
		if err := writeSpans(path, cfg.workload.name, recs); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(cfg.out, "# spans written to %s\n", path)
	} else {
		for _, d := range endToEnd {
			res.metrics[d.name] = metricValue{Value: e2e[d.name], Unit: d.unit}
		}
	}
	report(cfg, newMeta(cfg, len(setups)), size, timed, res, t)
	return res, nil
}

// report prints the run's metadata and every metric by name with its
// unit and sample count, ahead of the result line.
func report(cfg runConfig, meta runMeta, size sizeStats, timed phase, res *result, t tally) {
	meta.Size = size
	fmt.Fprintf(cfg.out, "# meta %s\n", mustJSON(meta))
	for _, err := range t.errs {
		fmt.Fprintf(cfg.out, "# FAILED %v\n", err)
	}
	var tputs []string
	for _, w := range timed.windows {
		tputs = append(tputs, fmt.Sprintf("%.4g", w.tput))
	}
	fmt.Fprintf(cfg.out, "# window throughput_ops %s\n", strings.Join(tputs, " "))
	fmt.Fprintf(cfg.out, "failed_ratio %.6f ratio (%d of %d)\n", ratio(float64(t.failed), float64(t.attempted)), t.failed, t.attempted)
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.metrics[n]
		fmt.Fprintf(cfg.out, "%s %.6g %s (n=%d, windows=%d)\n", n, v.Value, v.Unit, timed.stmts, len(timed.windows))
	}
	if cfg.traced {
		for _, d := range perLayer {
			fmt.Fprintf(cfg.out, "# moves %s -> %s\n", d.name, d.moves)
		}
	}
}
