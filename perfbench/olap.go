package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/proxy"
	"repro/internal/sqldb"
)

// olapScale sizes the analytic workload.
type olapScale struct {
	facts      int   // rows of the fact table f
	dims       int   // rows of the dimension table d
	groups     int   // distinct f.g values
	cats       int   // distinct d.cat values
	payload    int   // bytes of f.v
	batch      int   // rows per ingest and per trim
	cacheBytes int64 // buffer-cache budget of the whole engine
}

// The olap statement mix is dealt from a shuffled deck per session, so
// every run issues the same mix and only the order and parameters vary
// with the seed: 15 writes in 100, alternating ingest and trim per session
// so the fact table keeps its size, and 17 of each read shape.
const (
	deckWrites   = 15
	deckPerShape = 17
)

var readShapes = []string{"group", "join", "range", "minmax", "filter"}

const (
	sqlGroup  = "SELECT g, COUNT(*) FROM f GROUP BY g"
	sqlJoin   = "SELECT COUNT(*) FROM f JOIN d ON f.dk = d.dk WHERE d.cat = ?"
	sqlRange  = "SELECT id, k FROM f WHERE k > ? ORDER BY k LIMIT 50"
	sqlMinMax = "SELECT MIN(k), MAX(k) FROM f WHERE g = ?"
	sqlFilter = "SELECT COUNT(*) FROM f WHERE g = ?"
	sqlTrim   = "DELETE FROM f WHERE id >= ? AND id < ?"
	sqlCount  = "SELECT COUNT(*) FROM f"
	rangeRows = 50
)

// olapModel holds the fact and dimension data, which are pure functions
// of the seed and a row's residue (id mod facts): an ingested row repeats
// the attributes of the row a later trim removes, so every aggregate is
// the same after each balanced ingest/trim pair.
type olapModel struct {
	sc   olapScale
	seed int64

	catOf      []int64 // d.cat by d.dk
	groupCount []int64
	groupMin   []int64
	groupMax   []int64
	catCount   []int64
	sortedK    []int64
	slack      int64 // how far a count may drift while writes are in flight
	probeSet   *probeSet

	mu      sync.Mutex
	nextID  int64          // first id the next ingest uses
	trimLo  int64          // first id the next trim removes
	pending map[int64]bool // start ids of ingests not yet returned
}

func newOLAPModel(sc scale, seed int64, sessions int) model {
	o := sc.olap
	m := &olapModel{
		sc: o, seed: seed,
		catOf:      make([]int64, o.dims),
		groupCount: make([]int64, o.groups),
		groupMin:   make([]int64, o.groups),
		groupMax:   make([]int64, o.groups),
		catCount:   make([]int64, o.cats),
		sortedK:    make([]int64, o.facts),
		slack:      int64(o.batch * sessions),
		probeSet:   newProbeSet(97, 32),
		nextID:     int64(o.facts),
		pending:    make(map[int64]bool),
	}
	for dk := range m.catOf {
		m.catOf[dk] = int64(mix(uint64(m.seed), uint64(dk)+1<<40) % uint64(o.cats))
	}
	for g := range m.groupMin {
		m.groupMin[g], m.groupMax[g] = 1<<62, -1
	}
	for r := 0; r < o.facts; r++ {
		k, g, dk := m.attrs(int64(r))
		m.groupCount[g]++
		m.groupMin[g] = min(m.groupMin[g], k)
		m.groupMax[g] = max(m.groupMax[g], k)
		m.catCount[m.catOf[dk]]++
		m.sortedK[r] = k
	}
	sort.Slice(m.sortedK, func(i, j int) bool { return m.sortedK[i] < m.sortedK[j] })
	return m
}

// mix is SplitMix64's finalizer over (a, b).
func mix(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// attrs are the k, g and dk of fact id.
func (m *olapModel) attrs(id int64) (k, g, dk int64) {
	h := mix(uint64(m.seed), uint64(id%int64(m.sc.facts)))
	h2 := mix(h, 1)
	return int64(h % (1 << 30)), int64((h >> 32) % uint64(m.sc.groups)), int64(h2 % uint64(m.sc.dims))
}

// text is a deterministic alphanumeric string of n bytes.
func text(h uint64, n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, n)
	for i := range b {
		h = mix(h, uint64(i))
		b[i] = alphabet[h%uint64(len(alphabet))]
	}
	return string(b)
}

func (m *olapModel) factRow(id int64) []sqldb.Value {
	k, g, dk := m.attrs(id)
	v := text(mix(uint64(m.seed)+2, uint64(id%int64(m.sc.facts))), m.sc.payload)
	return []sqldb.Value{sqldb.Int(id), sqldb.Int(k), sqldb.Int(g), sqldb.Int(dk), sqldb.Text(v)}
}

func (m *olapModel) schema() []string {
	return []string{
		"CREATE TABLE f (id INT, k INT, g INT, dk INT, v TEXT)",
		"CREATE INDEX f_k ON f (k)",
		"CREATE INDEX f_id ON f (id)",
		"CREATE TABLE d (dk INT, cat INT, name TEXT)",
	}
}

const sqlInsertFact = "INSERT INTO f (id, k, g, dk, v) VALUES (?, ?, ?, ?, ?)"

func (m *olapModel) load(l *batchLoader) error {
	for _, ddl := range m.schema() {
		if _, err := l.Execute(ddl); err != nil {
			return err
		}
	}
	for dk := 0; dk < m.sc.dims; dk++ {
		name := text(mix(uint64(m.seed)+3, uint64(dk)), 24)
		m.probeSet.offer(name)
		if _, err := l.Execute("INSERT INTO d (dk, cat, name) VALUES (?, ?, ?)",
			sqldb.Int(int64(dk)), sqldb.Int(m.catOf[dk]), sqldb.Text(name)); err != nil {
			return err
		}
	}
	for id := 0; id < m.sc.facts; id++ {
		row := m.factRow(int64(id))
		m.probeSet.offer(prefix(row[4].S, 24))
		if _, err := l.Execute(sqlInsertFact, row...); err != nil {
			return err
		}
	}
	return nil
}

func (m *olapModel) probes() []string { return m.probeSet.list }

// Read shapes. Unless settled, a check allows for the writes in flight;
// on settled data every answer is exact.

func (m *olapModel) groupOp(settled bool) op {
	return op{label: "group", sql: sqlGroup, check: func(res *sqldb.Result) error {
		var total int64
		for _, row := range res.Rows {
			if len(row) != 2 {
				return fmt.Errorf("want (g, count) rows")
			}
			g, c := row[0].I, row[1].I
			if g < 0 || g >= int64(m.sc.groups) {
				return fmt.Errorf("unknown group %d", g)
			}
			if settled && c != m.groupCount[g] {
				return fmt.Errorf("group %d has %d rows, want %d", g, c, m.groupCount[g])
			}
			total += c
		}
		return m.near(total, int64(m.sc.facts), settled)
	}}
}

// near checks a count against its settled value, allowing the drift of
// in-flight writes unless the data is settled.
func (m *olapModel) near(got, want int64, settled bool) error {
	d := got - want
	if d < 0 {
		d = -d
	}
	if d > 0 && (settled || d > m.slack) {
		return fmt.Errorf("count %d, want %d", got, want)
	}
	return nil
}

func (m *olapModel) joinOp(cat int64, settled bool) op {
	return op{label: "join", sql: sqlJoin, params: []sqldb.Value{sqldb.Int(cat)}, check: func(res *sqldb.Result) error {
		got, err := scalar(res)
		if err != nil {
			return err
		}
		return m.near(got, m.catCount[cat], settled)
	}}
}

func (m *olapModel) filterOp(g int64, settled bool) op {
	return op{label: "filter", sql: sqlFilter, params: []sqldb.Value{sqldb.Int(g)}, check: func(res *sqldb.Result) error {
		got, err := scalar(res)
		if err != nil {
			return err
		}
		return m.near(got, m.groupCount[g], settled)
	}}
}

func (m *olapModel) minMaxOp(g int64, settled bool) op {
	return op{label: "minmax", sql: sqlMinMax, params: []sqldb.Value{sqldb.Int(g)}, check: func(res *sqldb.Result) error {
		if len(res.Rows) != 1 || len(res.Rows[0]) != 2 {
			return fmt.Errorf("want one (min, max) row")
		}
		lo, err1 := res.Rows[0][0].AsInt()
		hi, err2 := res.Rows[0][1].AsInt()
		if err1 != nil || err2 != nil || lo > hi {
			return fmt.Errorf("bad min/max %v, %v", res.Rows[0][0], res.Rows[0][1])
		}
		if settled && (lo != m.groupMin[g] || hi != m.groupMax[g]) {
			return fmt.Errorf("min/max %d/%d, want %d/%d", lo, hi, m.groupMin[g], m.groupMax[g])
		}
		return nil
	}}
}

// rangeOp's bound leaves enough rows above it that LIMIT 50 is always
// filled, even with a trim in flight.
func (m *olapModel) rangeOp(rng *rand.Rand, settled bool) op {
	j := rng.Intn(len(m.sortedK) - rangeRows - 2*int(m.slack))
	bound := m.sortedK[j]
	return op{label: "range", sql: sqlRange, params: []sqldb.Value{sqldb.Int(bound)}, check: func(res *sqldb.Result) error {
		if len(res.Rows) != rangeRows {
			return fmt.Errorf("%d rows, want %d", len(res.Rows), rangeRows)
		}
		want := m.sortedK[sort.Search(len(m.sortedK), func(i int) bool { return m.sortedK[i] > bound }):]
		prev := bound
		for i, row := range res.Rows {
			k, err := row[1].AsInt()
			if err != nil {
				return err
			}
			if k <= bound || k < prev {
				return fmt.Errorf("row %d: k %d not ascending above %d", i, k, bound)
			}
			if settled && k != want[i] {
				return fmt.Errorf("row %d: k %d, want %d", i, k, want[i])
			}
			prev = k
		}
		return nil
	}}
}

// ingestOp inserts the next batch of ids; settled releases the claim so
// trims may pass it.
func (m *olapModel) ingestOp() op {
	m.mu.Lock()
	a := m.nextID
	m.nextID += int64(m.sc.batch)
	m.pending[a] = true
	m.mu.Unlock()
	var params []sqldb.Value
	for id := a; id < a+int64(m.sc.batch); id++ {
		params = append(params, m.factRow(id)...)
	}
	return op{
		label: "ingest", sql: multiRowInsert(sqlInsertFact, m.sc.batch), params: params,
		check: wantAffected(m.sc.batch, nil),
		settled: func() {
			m.mu.Lock()
			delete(m.pending, a)
			m.mu.Unlock()
		},
	}
}

// trimOp deletes the batch of oldest ids. It waits while that batch
// reaches an ingest still in flight, which takes facts/batch trims to
// happen; an ingest that never returns is a bug in the benchmark.
func (m *olapModel) trimOp() op {
	for start := time.Now(); ; {
		if time.Since(start) > time.Minute {
			panic("perfbench: trim waited a minute for an ingest that never returned")
		}
		m.mu.Lock()
		frontier := m.nextID
		for p := range m.pending {
			frontier = min(frontier, p)
		}
		if m.trimLo+int64(m.sc.batch) <= frontier {
			lo := m.trimLo
			m.trimLo += int64(m.sc.batch)
			m.mu.Unlock()
			return op{label: "trim", sql: sqlTrim,
				params: []sqldb.Value{sqldb.Int(lo), sqldb.Int(lo + int64(m.sc.batch))},
				check:  wantAffected(m.sc.batch, nil)}
		}
		m.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
}

// trainQueries holds one statement of every shape. The write shapes are
// built here rather than by ingestOp and trimOp, which claim ids.
func (m *olapModel) trainQueries() []proxy.TrainQuery {
	rng := rand.New(rand.NewSource(deriveSeed(m.seed, streamTrain)))
	var out []proxy.TrainQuery
	for _, o := range []op{m.groupOp(false), m.joinOp(0, false), m.rangeOp(rng, false), m.minMaxOp(0, false), m.filterOp(0, false)} {
		out = append(out, proxy.TrainQuery{SQL: o.sql, Params: o.params})
	}
	var rows []sqldb.Value
	for id := 0; id < m.sc.batch; id++ {
		rows = append(rows, m.factRow(int64(id))...)
	}
	return append(out,
		proxy.TrainQuery{SQL: multiRowInsert(sqlInsertFact, m.sc.batch), Params: rows},
		proxy.TrainQuery{SQL: sqlTrim, Params: []sqldb.Value{sqldb.Int(0), sqldb.Int(int64(m.sc.batch))}},
		proxy.TrainQuery{SQL: sqlCount})
}

// warmup issues every shape once, writes as a balanced pair.
func (m *olapModel) warmup() []op {
	rng := rand.New(rand.NewSource(deriveSeed(m.seed, streamWarmup)))
	return []op{
		m.groupOp(false), m.joinOp(0, false), m.rangeOp(rng, false),
		m.minMaxOp(0, false), m.filterOp(0, false),
		m.ingestOp(), m.trimOp(),
	}
}

type olapSource struct {
	m        *olapModel
	rng      *rand.Rand
	deck     []string
	pos      int
	owesTrim bool // the session's last write was an ingest
}

func (s *olapSource) next() op {
	m, rng := s.m, s.rng
	if s.pos == len(s.deck) {
		rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
		s.pos = 0
	}
	shape := s.deck[s.pos]
	s.pos++
	switch shape {
	case "write":
		s.owesTrim = !s.owesTrim
		if s.owesTrim {
			return m.ingestOp()
		}
		return m.trimOp()
	case "group":
		return m.groupOp(false)
	case "join":
		return m.joinOp(int64(rng.Intn(m.sc.cats)), false)
	case "range":
		return m.rangeOp(rng, false)
	case "minmax":
		return m.minMaxOp(int64(rng.Intn(m.sc.groups)), false)
	}
	return m.filterOp(int64(rng.Intn(m.sc.groups)), false)
}

func (m *olapModel) client(session int) opSource {
	s := &olapSource{m: m, rng: rand.New(rand.NewSource(deriveSeed(m.seed, streamClient+uint64(session))))}
	for i := 0; i < deckWrites; i++ {
		s.deck = append(s.deck, "write")
	}
	for _, shape := range readShapes {
		for i := 0; i < deckPerShape; i++ {
			s.deck = append(s.deck, shape)
		}
	}
	s.pos = len(s.deck)
	return s
}

// settle trims once for a session whose last write was an ingest, which
// restores the fact table to its loaded contents.
func (m *olapModel) settle(src opSource) []op {
	s := src.(*olapSource)
	if !s.owesTrim {
		return nil
	}
	s.owesTrim = false
	return []op{m.trimOp()}
}

// checks: the fact count is unchanged, group counts match (and sum to the
// table size), and a few seeded filter, min/max, join and range answers
// are exact.
func (m *olapModel) checks() []op {
	rng := rand.New(rand.NewSource(deriveSeed(m.seed, streamTrain)))
	out := []op{
		{label: "check", sql: sqlCount, check: wantScalar(int64(m.sc.facts))},
		m.groupOp(true),
	}
	for i := 0; i < 2; i++ {
		g := int64(rng.Intn(m.sc.groups))
		out = append(out,
			m.filterOp(g, true), m.minMaxOp(g, true),
			m.joinOp(int64(rng.Intn(m.sc.cats)), true), m.rangeOp(rng, true))
	}
	for i := range out {
		out[i].label = "check." + out[i].label
	}
	return out
}
