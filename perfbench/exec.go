package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/proxy"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/store"
	"repro/internal/store/sharded"
	"repro/internal/store/single"
)

// executor runs one client's statements: through a proxy.Session on the
// encrypted workloads, straight to a store.Conn on tpcc-plain.
type executor interface {
	exec(sql string, params []sqldb.Value) (*sqldb.Result, error)
	close() error
}

type proxyExec struct{ s *proxy.Session }

func (x proxyExec) exec(sql string, params []sqldb.Value) (*sqldb.Result, error) {
	return x.s.Execute(sql, params...)
}

func (x proxyExec) close() error { return x.s.Close() }

// plainExec is the paper's "MySQL" client: it parses each statement itself
// (a sqlparser.parse span in traced runs) and hands the AST to the store.
type plainExec struct {
	c   store.Conn
	rec *recorder
}

func (x plainExec) exec(sql string, params []sqldb.Value) (*sqldb.Result, error) {
	var st sqlparser.Statement
	var err error
	x.rec.child(kindParse, func() { st, err = sqlparser.Parse(sql) })
	if err != nil {
		return nil, err
	}
	return x.c.Exec(st, params...)
}

func (x plainExec) close() error { return x.c.Close() }

// engineKind is how a workload's store is laid out on disk.
type engineKind struct {
	paged      bool
	noFsync    bool
	shards     int   // 1 opens store/single, more open store/sharded
	cacheBytes int64 // whole-engine buffer-cache budget when paged
}

// open opens (or reopens) the engine in dir the way cryptdb-server
// -data-dir does: fsync on every commit unless noFsync, group commit on,
// default auto-checkpoints, and the cache budget split evenly across
// shards.
func (k engineKind) open(dir string) (store.Engine, error) {
	opts := sqldb.DurabilityOptions{Paged: k.paged, NoFsync: k.noFsync}
	if k.paged {
		opts.CacheBytes = k.cacheBytes / int64(k.shards)
	}
	if k.shards > 1 {
		return sharded.Open(dir, k.shards, opts)
	}
	return single.Open(dir, opts)
}

// instance is one set-up copy of a workload: the engine in its data
// directory and, on encrypted workloads, the proxy in front of it.
type instance struct {
	dir   string
	kind  engineKind
	opts  proxy.Options // nil Plan and no DataDir on tpcc-plain
	eng   store.Engine  // the raw engine
	timed *timedEngine  // wraps eng in traced runs, nil otherwise
	px    *proxy.Proxy  // nil on tpcc-plain
}

// connect opens the engine and, when encrypted, the proxy over it.
func (in *instance) connect(traced bool) error {
	eng, err := in.kind.open(in.dir)
	if err != nil {
		return err
	}
	in.eng, in.timed = eng, nil
	var front store.Engine = eng
	if traced {
		in.timed = newTimedEngine(eng)
		front = in.timed
	}
	if in.opts.DataDir == "" {
		return nil
	}
	px, err := proxy.NewOnEngine(front, in.opts)
	if err != nil {
		eng.Close()
		return err
	}
	in.px = px
	return nil
}

// newExecutor opens one client session; rec (may be nil) receives its
// spans in traced runs.
func (in *instance) newExecutor(rec *recorder) executor {
	if in.timed != nil {
		in.timed.connFor(rec)
	}
	if in.px != nil {
		return proxyExec{in.px.NewSession()}
	}
	if in.timed != nil {
		return plainExec{c: in.timed.NewConn(), rec: rec}
	}
	return plainExec{c: in.eng.NewConn(), rec: rec}
}

func (in *instance) close() error {
	in.px = nil
	return in.eng.Close()
}

// batchLoader turns a loader's single-row INSERTs into multi-row INSERTs
// of up to max rows per table, one commit each, so set-up does not pay a
// commit (and an fsync, where the engine syncs) per row. Other statements pass through after the
// pending rows are flushed. observe, when set, sees every loaded row.
type batchLoader struct {
	ex      executor
	max     int
	observe func(table string, cols []string, row []sqldb.Value)
	pending map[string]*pendingRows // by single-row SQL text
	order   []string

	rows      int
	plainSize int
}

type pendingRows struct {
	table  string
	cols   []string
	n      int
	params []sqldb.Value
}

func newBatchLoader(ex executor, max int) *batchLoader {
	return &batchLoader{ex: ex, max: max, pending: make(map[string]*pendingRows)}
}

// Execute implements workload.Executor.
func (b *batchLoader) Execute(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	p, ok := b.pending[sql]
	if !ok {
		st, err := sqlparser.Parse(sql)
		if err != nil {
			return nil, err
		}
		ins, isInsert := st.(*sqlparser.InsertStmt)
		if !isInsert || len(ins.Rows) != 1 {
			if err := b.flush(); err != nil {
				return nil, err
			}
			return b.ex.exec(sql, params)
		}
		p = &pendingRows{table: ins.Table, cols: ins.Columns}
		b.pending[sql] = p
		b.order = append(b.order, sql)
	}
	if b.observe != nil {
		b.observe(p.table, p.cols, params)
	}
	for _, v := range params {
		b.plainSize += v.SizeBytes()
	}
	b.rows++
	p.params = append(p.params, params...)
	p.n++
	if p.n >= b.max {
		return &sqldb.Result{Affected: 1}, b.flushOne(sql, p)
	}
	return &sqldb.Result{Affected: 1}, nil
}

func (b *batchLoader) flush() error {
	for _, sql := range b.order {
		if err := b.flushOne(sql, b.pending[sql]); err != nil {
			return err
		}
	}
	return nil
}

func (b *batchLoader) flushOne(sql string, p *pendingRows) error {
	if p.n == 0 {
		return nil
	}
	res, err := b.ex.exec(multiRowInsert(sql, p.n), p.params)
	if err != nil {
		return fmt.Errorf("loading %s: %w", p.table, err)
	}
	if res.Affected != p.n {
		return fmt.Errorf("loading %s: %d rows inserted, want %d", p.table, res.Affected, p.n)
	}
	p.n, p.params = 0, p.params[:0]
	return nil
}

// multiRowInsert repeats the single VALUES tuple of sql n times.
func multiRowInsert(sql string, n int) string {
	i := strings.LastIndex(sql, "VALUES ") + len("VALUES ")
	tuple := sql[i:]
	var sb strings.Builder
	sb.Grow(i + n*(len(tuple)+2))
	sb.WriteString(sql[:i])
	for r := 0; r < n; r++ {
		if r > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(tuple)
	}
	return sb.String()
}

// findPlaintext scans every table the server stores, and the sealed
// metadata blob, through the raw engine and reports the first stored value
// containing a probe plaintext.
func findPlaintext(eng store.Engine, probes []string) error {
	pb := make([][]byte, len(probes))
	for i, p := range probes {
		pb[i] = []byte(p)
	}
	hit := func(b []byte) int {
		for i, p := range pb {
			if bytes.Contains(b, p) {
				return i
			}
		}
		return -1
	}
	if i := hit(eng.Meta()); i >= 0 {
		return fmt.Errorf("plaintext %q found in the stored metadata blob", probes[i])
	}
	for _, t := range eng.TableNames() {
		res, err := eng.ExecSQL("SELECT * FROM " + t)
		if err != nil {
			return fmt.Errorf("scanning %s: %w", t, err)
		}
		for _, row := range res.Rows {
			for c, v := range row {
				var b []byte
				switch v.Kind {
				case sqldb.KindText:
					b = []byte(v.S)
				case sqldb.KindBlob:
					b = v.B
				default:
					continue
				}
				if i := hit(b); i >= 0 {
					return fmt.Errorf("plaintext %q found in stored table %s column %s", probes[i], t, res.Columns[c])
				}
			}
		}
	}
	return nil
}

// probeSet samples probe plaintexts: every step-th distinct candidate
// offered, up to max.
type probeSet struct {
	seen  map[string]bool
	list  []string
	step  int
	max   int
	count int
}

func newProbeSet(step, max int) *probeSet {
	return &probeSet{seen: make(map[string]bool), step: step, max: max}
}

func (p *probeSet) offer(s string) {
	if p.seen[s] || len(p.list) >= p.max {
		return
	}
	p.count++
	if p.count%p.step != 0 {
		return
	}
	p.seen[s] = true
	p.list = append(p.list, s)
}

// setupTimes splits one set-up into its phases.
type setupTimes struct {
	total, load, adjust time.Duration
	rows, plainBytes    int
}
