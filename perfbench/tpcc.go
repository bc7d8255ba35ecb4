package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/proxy"
	"repro/internal/sqldb"
	"repro/internal/workload/tpcc"
)

// scale sizes both workload families.
type scale struct {
	tpcc tpcc.Config // Seed is set per run
	olap olapScale
}

// fullScale is what the benchmark measures: TPC-C at about 7k rows, all
// resident; the olap fact table at about three times the buffer cache in
// ciphertext.
var fullScale = scale{
	tpcc: tpcc.Config{Warehouses: 1, Districts: 10, Customers: 100, Orders: 100, Items: 1000},
	olap: olapScale{facts: 6000, dims: 240, groups: 50, cats: 20, payload: 48, batch: 100, cacheBytes: 480 << 10},
}

// deriveSeed maps (seed, stream) to an independent, non-zero generator
// seed (the tpcc package treats 0 as "use the default").
func deriveSeed(seed int64, stream uint64) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x>>2) | 1
}

// Generator streams of one run.
const (
	streamLoad = iota + 1
	streamWarmup
	streamTrain
	streamClient // client i uses streamClient+i
)

// tpccModel runs the tpcc package's generator and keeps the bookkeeping
// its checks compare against. Load-time maps are read-only once the timed
// phase starts.
type tpccModel struct {
	cfg  tpcc.Config
	seed int64

	stockQty      []int64 // sorted s_quantity values (stock is never updated)
	olSum         map[int64]int64
	newOrder      map[int64]bool
	loadedHistory int
	loadedYTD     int64
	probeSet      *probeSet

	mu       sync.Mutex
	deleted  map[int64]bool // new_order ids a DELETE removed
	inserted atomic.Int64   // history rows inserted
	ytd      atomic.Int64   // total d_ytd increments
}

func newTPCCModel(sc scale, seed int64, _ int) model {
	cfg := sc.tpcc
	cfg.Seed = deriveSeed(seed, streamLoad)
	return &tpccModel{
		cfg:      cfg,
		seed:     seed,
		olSum:    make(map[int64]int64),
		newOrder: make(map[int64]bool),
		deleted:  make(map[int64]bool),
		probeSet: newProbeSet(7, 48),
	}
}

func (m *tpccModel) schema() []string { return tpcc.Schema() }

func (m *tpccModel) generator(stream uint64) *tpcc.Generator {
	cfg := m.cfg
	cfg.Seed = deriveSeed(m.seed, stream)
	return tpcc.NewGenerator(cfg)
}

func (m *tpccModel) trainQueries() []proxy.TrainQuery {
	g := m.generator(streamTrain)
	var out []proxy.TrainQuery
	for _, c := range tpcc.Classes() {
		sql, params := g.ForClass(c)
		out = append(out, proxy.TrainQuery{SQL: sql, Params: params})
	}
	for _, o := range m.checks() {
		out = append(out, proxy.TrainQuery{SQL: o.sql, Params: o.params})
	}
	return out
}

func (m *tpccModel) load(l *batchLoader) error {
	l.observe = m.observe
	if err := tpcc.Load(l, m.cfg); err != nil {
		return err
	}
	sort.Slice(m.stockQty, func(i, j int) bool { return m.stockQty[i] < m.stockQty[j] })
	return nil
}

// observe records what the checks need from each loaded row, and the
// probe plaintexts: customer last names and the c_data and s_data filler.
func (m *tpccModel) observe(table string, cols []string, row []sqldb.Value) {
	col := func(name string) sqldb.Value {
		for i, c := range cols {
			if c == name {
				return row[i]
			}
		}
		return sqldb.Null()
	}
	switch table {
	case "stock":
		m.stockQty = append(m.stockQty, col("s_quantity").I)
		m.probeSet.offer(prefix(col("s_data").S, 24))
	case "order_line":
		m.olSum[col("ol_o_id").I] += col("ol_amount").I
	case "new_order":
		m.newOrder[col("no_o_id").I] = true
	case "history":
		m.loadedHistory++
	case "district":
		m.loadedYTD += col("d_ytd").I
	case "customer":
		m.probeSet.offer(col("c_last").S)
		m.probeSet.offer(prefix(col("c_data").S, 24))
	}
}

func prefix(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

func (m *tpccModel) probes() []string { return m.probeSet.list }

// op wraps one generated statement with the check its class implies.
func (m *tpccModel) op(c tpcc.Class, sql string, params []sqldb.Value) op {
	o := op{label: tpccClasses[c], sql: sql, params: params}
	switch c {
	case tpcc.Equality, tpcc.Join:
		o.check = wantRows(1)
	case tpcc.Range:
		bound := params[0].I
		o.check = wantRows(sort.Search(len(m.stockQty), func(i int) bool { return m.stockQty[i] >= bound }))
	case tpcc.Sum:
		o.check = wantScalar(m.olSum[params[0].I])
	case tpcc.Delete:
		id := params[0].I
		o.check = func(res *sqldb.Result) error {
			switch res.Affected {
			case 0:
				return nil
			case 1:
				m.mu.Lock()
				defer m.mu.Unlock()
				if !m.newOrder[id] || m.deleted[id] {
					return fmt.Errorf("deleted new_order %d, which was not present", id)
				}
				m.deleted[id] = true
				return nil
			}
			return fmt.Errorf("%d rows deleted, want at most 1", res.Affected)
		}
	case tpcc.Insert:
		o.check = wantAffected(1, func() { m.inserted.Add(1) })
	case tpcc.UpdSet:
		o.check = wantAffected(1, nil)
	case tpcc.UpdInc:
		inc := params[0].I
		o.check = wantAffected(1, func() { m.ytd.Add(inc) })
	}
	return o
}

func (m *tpccModel) warmup() []op {
	g := m.generator(streamWarmup)
	var out []op
	for _, c := range tpcc.Classes() {
		sql, params := g.ForClass(c)
		out = append(out, m.op(c, sql, params))
	}
	return out
}

type tpccSource struct {
	m *tpccModel
	g *tpcc.Generator
}

func (s *tpccSource) next() op {
	c, sql, params := s.g.Next()
	return s.m.op(c, sql, params)
}

func (m *tpccModel) client(session int) opSource {
	return &tpccSource{m: m, g: m.generator(streamClient + uint64(session))}
}

func (m *tpccModel) settle(opSource) []op { return nil }

// checks: the HOM sum of d_ytd equals the loaded total plus every
// increment issued, and history and new_order hold exactly the rows the
// acknowledged inserts and deletes leave.
func (m *tpccModel) checks() []op {
	m.mu.Lock()
	remaining := len(m.newOrder) - len(m.deleted)
	m.mu.Unlock()
	return []op{
		{label: "check", sql: "SELECT SUM(d_ytd) FROM district", check: wantScalar(m.loadedYTD + m.ytd.Load())},
		{label: "check", sql: "SELECT COUNT(*) FROM history", check: wantScalar(int64(m.loadedHistory) + m.inserted.Load())},
		{label: "check", sql: "SELECT COUNT(*) FROM new_order", check: wantScalar(int64(remaining))},
	}
}

// wantRows checks the row count of a reply.
func wantRows(n int) func(*sqldb.Result) error {
	return func(res *sqldb.Result) error {
		if len(res.Rows) != n {
			return fmt.Errorf("%d rows, want %d", len(res.Rows), n)
		}
		return nil
	}
}

// wantAffected checks a write's affected-row count and then runs ok.
func wantAffected(n int, ok func()) func(*sqldb.Result) error {
	return func(res *sqldb.Result) error {
		if res.Affected != n {
			return fmt.Errorf("%d rows affected, want %d", res.Affected, n)
		}
		if ok != nil {
			ok()
		}
		return nil
	}
}

// wantScalar checks a one-row, one-column integer reply.
func wantScalar(want int64) func(*sqldb.Result) error {
	return func(res *sqldb.Result) error {
		got, err := scalar(res)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("got %d, want %d", got, want)
		}
		return nil
	}
}

func scalar(res *sqldb.Result) (int64, error) {
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, fmt.Errorf("want one value, got %d rows", len(res.Rows))
	}
	return res.Rows[0][0].AsInt()
}
