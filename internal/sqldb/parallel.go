package sqldb

// Morsel-driven parallel execution for the compiled pipeline (exec.go).
//
// A parallel-eligible SELECT splits its seed table scan into fixed-size
// slot-range morsels (morselSlots slots, page-aligned) claimed off a
// monotonic counter by a small worker pool. Each worker runs its own copy
// of the scan -> filter -> join-probe pipeline over thread-private scratch
// memory (tuple/projection allocators, join probe scratch, group hash
// table); hash joins build their table in parallel first (striped build,
// buildParallel); order-sensitive tails (merge, sort, DISTINCT, LIMIT,
// projection of sorted rows) stay serial on the calling goroutine.
//
// The contract is strict: parallel execution returns bit-identical,
// identically-ordered results — and errors — vs the serial compiled path,
// which remains the equivalence oracle. The rules that make this hold:
//
//   - Output order. Morsels are slot ranges, so concatenating per-morsel
//     result buckets in morsel-index order reproduces the serial scan
//     order exactly. Join operators emit matches per probe tuple in build
//     slot order (the build table preserves it), as serial does.
//   - Group order. Serial hash aggregation emits groups in first-seen
//     order. Each parallel group records the (morsel, per-morsel sequence)
//     tag of the tuple that created it; merged groups keep the minimum
//     tag, and sorting merged groups by tag reproduces first-seen order.
//   - Errors. A failing worker stops the pool; the error from the
//     lowest-numbered morsel wins. Morsels are claimed in ascending order,
//     so when morsel m errors every morsel < m was already claimed and
//     runs to completion — for row-local errors (WHERE, projection, probe
//     keys, SUM coercion) the winning error is exactly the error serial
//     execution would have hit first. The one non-row-local case, the
//     MIN/MAX running-best comparison (aggCompareError), aborts the
//     parallel attempt and reruns the statement serially instead.
//   - Aggregates. Builtin accumulators merge associatively (aggMerger).
//     MIN/MAX partials additionally track the set of value kinds folded
//     in: a multi-kind union makes the fold order observable (cross-kind
//     coercion errors, tie identity), so the merge returns
//     errParallelFallback and the statement reruns serially. UDFs — scalar
//     or aggregate — carry no thread-safety or mergeability contract and
//     are excluded at compile time (compiledSelect.noPar).
//   - Paged storage. Workers fault pages through the buffer pool like any
//     reader (page.go's lock-free fault-in contract); each work unit runs
//     under its own catchPageFault so a fault surfaces as an ordinary
//     error on the statement, exactly as the serial path's recovery does.
//     The statement goroutine holds db.mu's read side for the whole run,
//     which keeps mutators out for every worker.
//
// Worker accounting is global (execTokens): each statement's calling
// goroutine is always worker zero and extra workers are borrowed from a
// process-wide budget, so concurrent statements — and the sharded engine's
// per-shard fan-out — share one pool instead of oversubscribing the host.

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// morselSlots is the scan morsel size in table slots: a multiple of
// pageSlots so morsels are page-aligned, small enough to keep the pool
// load-balanced, large enough to amortize claim overhead. Package variable
// so the equivalence tests can shrink it and exercise many morsels on
// small tables (iterateMorsel stays correct for any positive value).
var morselSlots = 8 * pageSlots

// buildStripes is the fan-out of the parallel hash-join build: build rows
// are partitioned by a hash of their encoded key, then each stripe's map
// is built by one worker folding morsel outputs in index order (so per-key
// row slices keep global slot order without locks or sorting).
const buildStripes = 16

// parallelMinRows gates fan-out by seed-table size: below it the
// per-statement setup (workers, buckets, merge) costs more than it saves.
// Package variable so the equivalence tests can force tiny tables through
// the parallel path.
var parallelMinRows = 1024

// errParallelFallback aborts a parallel attempt whose merge would be
// order-sensitive (see cMinMaxAcc.merge). The statement reruns serially;
// the sentinel never escapes to callers.
var errParallelFallback = errors.New("sqldb: parallel execution fell back to serial")

//
// Worker token pool.
//

// workerTokenPool is the process-wide budget of *extra* workers (beyond
// each statement's own goroutine). Acquisition never blocks: a statement
// takes what is available and runs with it, degrading to serial under
// contention. Capacity starts at GOMAXPROCS-1 and grows to honor explicit
// SetExecWorkers/SetDefaultExecWorkers requests; it never shrinks.
type workerTokenPool struct {
	mu       sync.Mutex
	capacity int
	inUse    int
}

var execTokens = &workerTokenPool{capacity: initialTokenCap()}

func initialTokenCap() int {
	if n := runtime.GOMAXPROCS(0) - 1; n > 0 {
		return n
	}
	return 0
}

// ensureCap grows the pool so an explicit worker-count request can be met
// even on a box whose GOMAXPROCS is lower (worker sweeps, ablations).
func (p *workerTokenPool) ensureCap(n int) {
	p.mu.Lock()
	if n > p.capacity {
		p.capacity = n
	}
	p.mu.Unlock()
}

// tryAcquire grants up to want tokens, possibly zero. Never blocks.
func (p *workerTokenPool) tryAcquire(want int) int {
	if want <= 0 {
		return 0
	}
	p.mu.Lock()
	grant := p.capacity - p.inUse
	if grant > want {
		grant = want
	}
	if grant < 0 {
		grant = 0
	}
	p.inUse += grant
	p.mu.Unlock()
	return grant
}

func (p *workerTokenPool) release(n int) {
	if n <= 0 {
		return
	}
	p.mu.Lock()
	p.inUse -= n
	p.mu.Unlock()
}

// defaultExecWorkers is the process-wide worker-count default applied to
// databases with no per-DB setting; the server's -exec-workers flag sets
// it so every engine topology (single, sharded shards, replication
// followers) inherits one knob.
var defaultExecWorkers int32

// SetDefaultExecWorkers sets the process-wide default intra-query worker
// count. 0 restores the built-in default (GOMAXPROCS); 1 forces serial
// execution everywhere a DB has no explicit setting.
func SetDefaultExecWorkers(n int) {
	if n < 0 {
		n = 0
	}
	if n > 1 {
		execTokens.ensureCap(n - 1)
	}
	atomic.StoreInt32(&defaultExecWorkers, int32(n))
}

// effectiveExecWorkers resolves the per-statement worker cap: the DB's own
// setting, else the process default, else GOMAXPROCS.
func (db *DB) effectiveExecWorkers() int {
	if n := atomic.LoadInt32(&db.execWorkers); n > 0 {
		return int(n)
	}
	if n := atomic.LoadInt32(&defaultExecWorkers); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

//
// Morsel driver.
//

// morselCountFor is the number of scan morsels covering t's slot space.
func morselCountFor(t *Table) int {
	return (t.nslots + morselSlots - 1) / morselSlots
}

// iterateMorsel walks the live rows of morsel m in slot order, page by
// page. May panic *PageFaultError via t.page, like every row access path.
func iterateMorsel(t *Table, m int, fn func(row []Value) bool) {
	lo := m * morselSlots
	hi := lo + morselSlots
	if hi > t.nslots {
		hi = t.nslots
	}
	for id := lo >> pageShift; id<<pageShift < hi; id++ {
		p := t.page(id)
		base := id << pageShift
		start := 0
		if base < lo {
			start = lo - base // unaligned morsel size (tests): skip prior morsel's slots
		}
		n := hi - base
		if n > pageSlots {
			n = pageSlots
		}
		for i := start; i < n; i++ {
			if row := p.rows[i]; row != nil {
				if !fn(row) {
					return
				}
			}
		}
	}
}

// runParallelMorsels executes fn(worker, morsel) for every morsel in
// [0,n), claiming morsels in ascending order off a shared counter. The
// calling goroutine is worker 0; nw-1 extra goroutines are spawned. On
// error the pool stops and the error from the lowest-numbered morsel is
// returned (see the determinism rules in the file comment). Each call runs
// under its own catchPageFault so paged-table faults surface as errors.
// All workers are joined before return.
func runParallelMorsels(n, nw int, fn func(worker, morsel int) error) error {
	if nw > n {
		nw = n
	}
	var (
		next int64
		stop int32
		mu   sync.Mutex
		errM = -1
		werr error
	)
	record := func(m int, err error) {
		mu.Lock()
		if errM < 0 || m < errM {
			errM, werr = m, err
		}
		mu.Unlock()
		atomic.StoreInt32(&stop, 1)
	}
	work := func(w int) {
		for atomic.LoadInt32(&stop) == 0 {
			m := int(atomic.AddInt64(&next, 1)) - 1
			if m >= n {
				return
			}
			err := func() (err error) {
				defer catchPageFault(&err)
				return fn(w, m)
			}()
			if err != nil {
				record(m, err)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
	return werr
}

//
// Parallel plan: eligibility and per-worker pipeline state.
//

// paraStep is one join operator of the pipeline, innermost first.
type paraStep struct {
	hash *hashJoinSource
	loop *loopJoinSource
	bt   *builtTable // prepared build table (hash steps)
}

type paraPlan struct {
	seed  *scanSource
	steps []*paraStep
}

// planParallel decides whether the lowered plan is parallel-eligible and
// extracts its operator chain. Eligibility: a real seed table scanned
// unpruned (morsels cover the whole slot space; a sarg-pruned or indexed
// access path keeps the cheaper serial plan), at least parallelMinRows
// live seed rows (cost gating: fan-out setup dwarfs tiny scans), no UDFs
// (noPar), and a chain made only of operators the morsel pipeline knows.
func (p *compiledSelect) planParallel() (*paraPlan, bool) {
	if p.noPar || !p.hasSeed || p.seedAcc.kind != accessScan {
		return nil, false
	}
	var rev []*paraStep
	src := p.src
	for {
		switch s := src.(type) {
		case *scanSource:
			if s.acc.kind != accessScan || s.t.live < parallelMinRows {
				return nil, false
			}
			steps := make([]*paraStep, 0, len(rev))
			for i := len(rev) - 1; i >= 0; i-- {
				steps = append(steps, rev[i])
			}
			return &paraPlan{seed: s, steps: steps}, true
		case *hashJoinSource:
			rev = append(rev, &paraStep{hash: s})
			src = s.inner
		case *loopJoinSource:
			rev = append(rev, &paraStep{loop: s})
			src = s.inner
		default:
			return nil, false
		}
	}
}

// tupAlloc carves tuples from chunks, one allocation per batchSize tuples:
// the per-worker analogue of the serial batcher's chunk allocator.
type tupAlloc struct {
	ntabs int
	mem   [][]Value
}

func (a *tupAlloc) newTuple() tuple {
	if len(a.mem) < a.ntabs {
		a.mem = make([][]Value, a.ntabs*batchSize)
	}
	t := a.mem[:a.ntabs:a.ntabs]
	a.mem = a.mem[a.ntabs:]
	return t
}

// pgroup is a parallel worker's hash-aggregation group: the serial cgroup
// plus the (morsel, sequence) tag of the tuple that created it, which
// reproduces serial first-seen order after the merge.
type pgroup struct {
	cgroup
	m, seq int
}

// paraWorker is one worker's thread-private pipeline state. Nothing here
// is shared: tuples, projection rows, probe scratch and groups all live in
// per-worker memory, so workers only touch shared state through the
// read-only plan, the read-only build tables and the per-morsel result
// buckets they own.
type paraWorker struct {
	p       *compiledSelect
	pp      *paraPlan
	alloc   tupAlloc
	proj    projAlloc
	ev      execEnv
	scr     []*probeScratch
	scratch tuple // reused seed tuple (joins copy out of it immediately)
	keyBuf  []byte

	groups map[string]*pgroup // grouped mode only

	// sink consumes one joined tuple. volatile marks a tuple whose backing
	// slice is reused by the producer; a sink that retains it must copy.
	sink  func(tup tuple, volatile bool) error
	entry func(tup tuple) error // seed-side entry of the operator chain
	cur   int                   // morsel being processed
	seq   int                   // tuples fed to sink this morsel
}

func (p *compiledSelect) newParaWorker(pp *paraPlan) *paraWorker {
	pw := &paraWorker{
		p:       p,
		pp:      pp,
		alloc:   tupAlloc{ntabs: pp.seed.ntabs},
		ev:      execEnv{params: p.params},
		scratch: make(tuple, pp.seed.ntabs),
	}
	for _, st := range pp.steps {
		scr := &probeScratch{
			pev: execEnv{params: p.params},
			rev: execEnv{params: p.params},
		}
		if st.hash != nil {
			// probeTuple ranges over probeVals: its length must equal the
			// join's key count exactly.
			scr.probeVals = make([]Value, len(st.hash.keys))
		}
		pw.scr = append(pw.scr, scr)
	}
	return pw
}

// buildChain composes the worker's operator chain, outermost-last, ending
// in the sink. Seed tuples are a reused scratch slice: with join steps the
// first operator copies the slice headers into a fresh tuple immediately
// (pairFunc / loopProbe), so only the no-step chain marks them volatile.
func (pw *paraWorker) buildChain() {
	if len(pw.pp.steps) == 0 {
		pw.entry = func(tup tuple) error { return pw.sink(tup, true) }
		return
	}
	next := func(tup tuple) error { return pw.sink(tup, false) }
	for j := len(pw.pp.steps) - 1; j >= 0; j-- {
		st := pw.pp.steps[j]
		scr := pw.scr[j]
		inner := next
		if st.hash != nil {
			h := st.hash
			bt := st.bt
			pair := h.pairFunc(pw.alloc.newTuple, inner, &scr.rev)
			next = func(tup tuple) error { return h.probeTuple(bt, scr, tup, pair) }
		} else {
			l := st.loop
			next = func(tup tuple) error { return pw.loopProbe(l, scr, tup, inner) }
		}
	}
	pw.entry = next
}

// loopProbe is the morsel pipeline's nested-loop step: the parallel twin
// of loopJoinSource.run's inner loop, over per-worker memory.
func (pw *paraWorker) loopProbe(l *loopJoinSource, scr *probeScratch, tup tuple, next func(tuple) error) error {
	var iterErr error
	l.acc.iterate(l.t, func(_ int, row []Value) bool {
		nt := pw.alloc.newTuple()
		copy(nt, tup)
		nt[l.ti] = row
		if l.on != nil {
			scr.rev.tup = nt
			v, err := l.on(&scr.rev)
			if err != nil {
				iterErr = err
				return false
			}
			if !v.Truthy() {
				return true
			}
		}
		if err := next(nt); err != nil {
			iterErr = err
			return false
		}
		return true
	})
	return iterErr
}

// runMorsel streams one morsel of the seed scan through the worker's chain.
func (pw *paraWorker) runMorsel(m int) error {
	pw.cur, pw.seq = m, 0
	seed := pw.pp.seed
	var err error
	iterateMorsel(seed.t, m, func(row []Value) bool {
		pw.scratch[seed.ti] = row
		if e := pw.entry(pw.scratch); e != nil {
			err = e
			return false
		}
		return true
	})
	return err
}

// applyWhere evaluates the residual WHERE filter against tup.
func (pw *paraWorker) applyWhere(tup tuple) (bool, error) {
	p := pw.p
	if p.where == nil {
		return true, nil
	}
	pw.ev.tup, pw.ev.aggs = tup, nil
	v, err := p.where(&pw.ev)
	if err != nil {
		return false, err
	}
	return v.Truthy(), nil
}

// groupSink folds one tuple into the worker's private group table: the
// parallel twin of runGrouped's step closure, plus the creation tag.
func (pw *paraWorker) groupSink(tup tuple, volatile bool) error {
	p := pw.p
	seq := pw.seq
	pw.seq++
	ok, err := pw.applyWhere(tup)
	if err != nil || !ok {
		return err
	}
	ev := &pw.ev
	ev.tup, ev.aggs = tup, nil
	pw.keyBuf = pw.keyBuf[:0]
	for gi, gk := range p.groupKeys {
		var v Value
		if s := p.groupKeySlots[gi]; s.ok {
			v = tup[s.ti][s.ci]
		} else {
			var err error
			v, err = gk(ev)
			if err != nil {
				return err
			}
		}
		pw.keyBuf = v.appendKey(pw.keyBuf)
		pw.keyBuf = append(pw.keyBuf, 0x1f)
	}
	gr := pw.groups[string(pw.keyBuf)]
	if gr == nil {
		first := tup
		if volatile {
			first = append(tuple(nil), tup...)
		}
		gr = &pgroup{m: pw.cur, seq: seq}
		gr.first = first
		gr.accs = make([]vAgg, len(p.aggs))
		for i, spec := range p.aggs {
			gr.accs[i] = spec.newAcc()
		}
		pw.groups[string(pw.keyBuf)] = gr
	}
	for _, acc := range gr.accs {
		if err := acc.step(ev); err != nil {
			return err
		}
	}
	return nil
}

//
// Statement-level dispatch.
//

// tryRunParallel attempts morsel-parallel execution. ran=false means the
// caller should run the serial path: the plan is ineligible, no worker
// tokens were available, or the parallel attempt hit a merge-order hazard
// and must be redone serially (errParallelFallback; the rerun recounts the
// statement's join tallies — a rare, documented double count).
func (p *compiledSelect) tryRunParallel() (res *Result, err error, ran bool) {
	maxW := p.db.effectiveExecWorkers()
	if maxW <= 1 {
		return nil, nil, false
	}
	pp, ok := p.planParallel()
	if !ok {
		return nil, nil, false
	}
	nm := morselCountFor(pp.seed.t)
	want := maxW
	if nm < want {
		want = nm
	}
	if want <= 1 {
		return nil, nil, false
	}
	grant := execTokens.tryAcquire(want - 1)
	if grant == 0 {
		return nil, nil, false
	}
	defer execTokens.release(grant)
	res, err = p.runParallel(pp, nm, grant+1)
	if err != nil {
		var ace *aggCompareError
		if err == errParallelFallback || errors.As(err, &ace) {
			// Merge-order hazard: discard the parallel attempt and rerun
			// the whole statement serially for the exact serial outcome.
			return nil, nil, false
		}
		return nil, err, true
	}
	atomic.AddInt64(&p.db.parallelPipelines, 1)
	return res, nil, true
}

func (p *compiledSelect) runParallel(pp *paraPlan, nm, nw int) (*Result, error) {
	// Prepare join build sides up front (build-side morsels may themselves
	// run parallel); loop steps tally their nested-loop counter here, once
	// per statement, as the serial operator does.
	for _, st := range pp.steps {
		if st.hash != nil {
			bt, err := st.hash.prepare(nw)
			if err != nil {
				return nil, err
			}
			st.bt = bt
		} else {
			atomic.AddInt64(&p.db.nestedLoops, 1)
		}
	}

	workers := make([]*paraWorker, nw)
	for w := range workers {
		workers[w] = p.newParaWorker(pp)
	}

	var (
		rowsBy  [][][]Value
		itemsBy [][]sortItem
	)
	switch {
	case p.grouped:
		for _, pw := range workers {
			pw.groups = make(map[string]*pgroup)
			pw.sink = pw.groupSink
		}
	case len(p.orderBy) > 0:
		itemsBy = make([][]sortItem, nm)
		for _, pw := range workers {
			pw := pw
			pw.sink = func(tup tuple, volatile bool) error {
				ok, err := pw.applyWhere(tup)
				if err != nil || !ok {
					return err
				}
				if volatile {
					nt := pw.alloc.newTuple()
					copy(nt, tup)
					tup = nt
				}
				itemsBy[pw.cur] = append(itemsBy[pw.cur], sortItem{tup: tup})
				return nil
			}
		}
	default:
		rowsBy = make([][][]Value, nm)
		for _, pw := range workers {
			pw := pw
			pw.sink = func(tup tuple, volatile bool) error {
				ok, err := pw.applyWhere(tup)
				if err != nil || !ok {
					return err
				}
				row, err := p.projectWith(&pw.proj, &pw.ev, tup, nil)
				if err != nil {
					return err
				}
				rowsBy[pw.cur] = append(rowsBy[pw.cur], row)
				return nil
			}
		}
	}
	for _, pw := range workers {
		pw.buildChain()
	}

	err := runParallelMorsels(nm, nw, func(w, m int) error {
		return workers[w].runMorsel(m)
	})
	atomic.AddInt64(&p.db.morselsRun, int64(nm))
	if err != nil {
		return nil, err
	}

	if p.grouped {
		return p.mergeGrouped(workers)
	}
	res := &Result{Columns: p.cols}
	if len(p.orderBy) > 0 {
		var items []sortItem
		for _, mi := range itemsBy {
			items = append(items, mi...)
		}
		if err := p.sortItems(items); err != nil {
			return nil, err
		}
		ev := &execEnv{params: p.params}
		for i := range items {
			row, err := p.projectInto(ev, items[i].tup, nil)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	} else {
		for _, mr := range rowsBy {
			res.Rows = append(res.Rows, mr...)
		}
	}
	if p.s.Distinct {
		res.Rows = dedupRows(res.Rows)
	}
	res.Rows = applyLimit(res.Rows, p.s.Limit, p.s.Offset)
	return res, nil
}

// mergeGrouped folds the workers' private group tables into one, combining
// accumulators and keeping each group's minimum creation tag, then hands
// tag-sorted groups (= serial first-seen order) to the shared serial tail.
func (p *compiledSelect) mergeGrouped(workers []*paraWorker) (*Result, error) {
	merged := make(map[string]*pgroup)
	for _, pw := range workers {
		for key, g := range pw.groups {
			mg := merged[key]
			if mg == nil {
				merged[key] = g
				continue
			}
			// Keep the earlier-created group as the base: its first tuple
			// is the one serial execution retained. Accumulator merges are
			// order-independent (enforced by cMinMaxAcc's kind tracking),
			// so base choice only fixes the group identity.
			lo, hi := mg, g
			if g.m < lo.m || (g.m == lo.m && g.seq < lo.seq) {
				lo, hi = g, mg
				merged[key] = g
			}
			for i := range lo.accs {
				am, ok := lo.accs[i].(aggMerger)
				if !ok {
					return nil, errParallelFallback
				}
				if err := am.merge(hi.accs[i]); err != nil {
					return nil, err
				}
			}
		}
	}
	pgs := make([]*pgroup, 0, len(merged))
	for _, g := range merged {
		pgs = append(pgs, g)
	}
	sort.Slice(pgs, func(i, j int) bool {
		if pgs[i].m != pgs[j].m {
			return pgs[i].m < pgs[j].m
		}
		return pgs[i].seq < pgs[j].seq
	})
	order := make([]*cgroup, len(pgs))
	for i, g := range pgs {
		order[i] = &g.cgroup
	}
	return p.finishGrouped(order)
}

//
// Mergeable accumulators. merge folds a peer partial (same aggregate spec,
// disjoint row sets) into the receiver; all implementations are
// order-independent so the nondeterministic worker merge order cannot leak
// into results. cUDFAcc deliberately does not implement aggMerger.
//

type aggMerger interface {
	merge(other vAgg) error
}

func (a *cCountStarAcc) merge(o vAgg) error {
	a.n += o.(*cCountStarAcc).n
	return nil
}

func (a *cCountAcc) merge(o vAgg) error {
	a.n += o.(*cCountAcc).n
	return nil
}

func (a *cCountDistinctAcc) merge(o vAgg) error {
	for k := range o.(*cCountDistinctAcc).seen {
		a.seen[k] = true
	}
	return nil
}

func (a *cSumAcc) merge(o vAgg) error {
	b := o.(*cSumAcc)
	a.sum += b.sum
	a.any = a.any || b.any
	return nil
}

func (a *cAvgAcc) merge(o vAgg) error {
	b := o.(*cAvgAcc)
	a.sum += b.sum
	a.n += b.n
	return nil
}

func (a *cMinMaxAcc) merge(o vAgg) error {
	b := o.(*cMinMaxAcc)
	a.kinds |= b.kinds
	if k := a.kinds; k&(k-1) != 0 {
		// More than one value kind: the running best — and whether the
		// fold errors at all — depends on fold order. Only the full serial
		// fold reproduces the serial answer.
		return errParallelFallback
	}
	if !b.any {
		return nil
	}
	if !a.any {
		a.best, a.any = b.best, true
		return nil
	}
	c, err := b.best.Compare(a.best)
	if err != nil {
		return errParallelFallback // unreachable for same-kind values; be safe
	}
	if (a.min && c < 0) || (!a.min && c > 0) {
		a.best = b.best
	}
	return nil
}

//
// Parallel hash-join build.
//

// buildEnt is one build row routed to a stripe: its encoded key and the row.
type buildEnt struct {
	key string
	row []Value
}

// buildParallel builds the join's transient hash table in two parallel
// phases. Phase A scans build-side morsels, each worker routing its rows
// into per-morsel, per-stripe buckets (stripe = hash of key bytes). Phase
// B assigns each stripe to one worker, which folds the morsel buckets in
// morsel-index order — so every per-key row slice comes out in global slot
// order, bit-identical to the serial build, with no locks and no sorting.
func (h *hashJoinSource) buildParallel(maxW int) (*builtTable, error) {
	t := h.t
	nm := morselCountFor(t)
	nw := maxW
	if nw > nm {
		nw = nm
	}
	if nw <= 1 {
		return h.buildSerial()
	}
	type morselBuild struct {
		ents  [buildStripes][]buildEnt
		rows  [][]Value
		kinds [][4]int
		total int
	}
	outs := make([]*morselBuild, nm)
	err := runParallelMorsels(nm, nw, func(_, m int) error {
		mb := &morselBuild{kinds: make([][4]int, len(h.keys))}
		outs[m] = mb
		vals := make([]Value, len(h.keys))
		var keyBuf []byte
		iterateMorsel(t, m, func(row []Value) bool {
			mb.total++
			for i, k := range h.keys {
				v := row[k.buildPos]
				if v.IsNull() {
					return true // NULL joins nothing
				}
				vals[i] = v
			}
			keyBuf = keyBuf[:0]
			for i, v := range vals {
				mb.kinds[i][int(v.Kind)]++
				keyBuf = v.appendKey(keyBuf)
				keyBuf = append(keyBuf, 0)
			}
			s := fnv32a(keyBuf) & (buildStripes - 1)
			mb.ents[s] = append(mb.ents[s], buildEnt{key: string(keyBuf), row: row})
			mb.rows = append(mb.rows, row)
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}

	bt := &builtTable{
		stripes:    make([]map[string][][]Value, buildStripes),
		stripeMask: buildStripes - 1,
	}
	kinds := make([][4]int, len(h.keys))
	for _, mb := range outs {
		bt.total += mb.total
		bt.rows = append(bt.rows, mb.rows...)
		for i := range kinds {
			for k := range kinds[i] {
				kinds[i][k] += mb.kinds[i][k]
			}
		}
	}
	err = runParallelMorsels(buildStripes, nw, func(_, s int) error {
		m := make(map[string][][]Value)
		for _, mb := range outs {
			for _, e := range mb.ents[s] {
				m[e.key] = append(m[e.key], e.row)
			}
		}
		bt.stripes[s] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&h.db.morselsRun, int64(nm+buildStripes))
	h.finishBuild(bt, kinds)
	return bt, nil
}
