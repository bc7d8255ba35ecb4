package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/store"
)

// Span kinds. A stmt span is the root of one statement; store and parse
// spans are its children.
const (
	kindStmt  = "stmt"
	kindStore = "store.exec"
	kindParse = "sqlparser.parse"
)

// span is one timed call. Times are offsets from the run's epoch.
type span struct {
	kind       string
	label      string // the statement's class or shape
	stmt       int    // statement id within the session
	parent     int    // index of the parent span in the session's slice; -1 for a root
	start, end time.Duration
}

// recorder holds one session's spans. Only the session's own goroutine
// appends to it, so it needs no lock; it is read after the session ends.
type recorder struct {
	epoch   time.Time
	session int
	on      bool // recording is enabled (the traced timed phase)
	cur     int  // index of the open stmt span, -1 between statements
	nStmt   int
	spans   []span
}

func newRecorder(session int, epoch time.Time) *recorder {
	return &recorder{epoch: epoch, session: session, cur: -1}
}

// begin opens the root span of one statement.
func (r *recorder) begin(label string) {
	if r == nil || !r.on {
		return
	}
	r.nStmt++
	r.cur = len(r.spans)
	r.spans = append(r.spans, span{kind: kindStmt, label: label, stmt: r.nStmt, parent: -1, start: time.Since(r.epoch)})
}

// end closes the open statement span.
func (r *recorder) end() {
	if r == nil || r.cur < 0 {
		return
	}
	r.spans[r.cur].end = time.Since(r.epoch)
	r.cur = -1
}

// child times fn as a child span of the open statement, if any.
func (r *recorder) child(kind string, fn func()) {
	if r == nil || r.cur < 0 {
		fn()
		return
	}
	start := time.Since(r.epoch)
	fn()
	root := r.spans[r.cur]
	r.spans = append(r.spans, span{kind: kind, label: root.label, stmt: root.stmt, parent: r.cur, start: start, end: time.Since(r.epoch)})
}

// timedEngine decorates the store.Engine the proxy (or the plain client)
// is handed: every statement call into the store becomes a store.exec
// span of the statement in flight. Conn calls are attributed through the
// conn's session; engine-level calls (ExecAutonomous* for onion
// adjustments, SetMeta) through the calling goroutine, which is the
// session's.
type timedEngine struct {
	store.Engine

	mu   sync.Mutex
	next *recorder           // recorder the next NewConn belongs to
	byG  map[int64]*recorder // session goroutine -> its recorder
}

func newTimedEngine(e store.Engine) *timedEngine {
	return &timedEngine{Engine: e, byG: make(map[int64]*recorder)}
}

// connFor makes the next NewConn belong to rec; the caller opens exactly
// one connection (directly or through proxy.NewSession) right after.
func (e *timedEngine) connFor(rec *recorder) {
	e.mu.Lock()
	e.next = rec
	e.mu.Unlock()
}

// bindGoroutine attributes engine-level calls from the calling goroutine
// to rec until unbindGoroutine.
func (e *timedEngine) bindGoroutine(rec *recorder) {
	g := goid()
	e.mu.Lock()
	e.byG[g] = rec
	e.mu.Unlock()
}

func (e *timedEngine) unbindGoroutine() {
	g := goid()
	e.mu.Lock()
	delete(e.byG, g)
	e.mu.Unlock()
}

func (e *timedEngine) callerRecorder() *recorder {
	g := goid()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.byG[g]
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 42 [running]:"). Only traced runs call it.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return -1
	}
	return id
}

func timedCall(rec *recorder, fn func() (*sqldb.Result, error)) (res *sqldb.Result, err error) {
	rec.child(kindStore, func() { res, err = fn() })
	return res, err
}

// NewConn implements store.Engine.
func (e *timedEngine) NewConn() store.Conn {
	e.mu.Lock()
	rec := e.next
	e.next = nil
	e.mu.Unlock()
	return &timedConn{Conn: e.Engine.NewConn(), rec: rec}
}

// ExecSQL implements store.Executor.
func (e *timedEngine) ExecSQL(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	return timedCall(e.callerRecorder(), func() (*sqldb.Result, error) { return e.Engine.ExecSQL(sql, params...) })
}

// Exec implements store.Executor.
func (e *timedEngine) Exec(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	return timedCall(e.callerRecorder(), func() (*sqldb.Result, error) { return e.Engine.Exec(st, params...) })
}

// ExecWithMeta implements store.Executor.
func (e *timedEngine) ExecWithMeta(st sqlparser.Statement, meta []byte, params ...sqldb.Value) (*sqldb.Result, error) {
	return timedCall(e.callerRecorder(), func() (*sqldb.Result, error) { return e.Engine.ExecWithMeta(st, meta, params...) })
}

// ExecAutonomous implements store.Engine.
func (e *timedEngine) ExecAutonomous(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	return timedCall(e.callerRecorder(), func() (*sqldb.Result, error) { return e.Engine.ExecAutonomous(st, params...) })
}

// ExecAutonomousWithMeta implements store.Engine.
func (e *timedEngine) ExecAutonomousWithMeta(st sqlparser.Statement, meta []byte, params ...sqldb.Value) (*sqldb.Result, error) {
	return timedCall(e.callerRecorder(), func() (*sqldb.Result, error) { return e.Engine.ExecAutonomousWithMeta(st, meta, params...) })
}

// SetMeta implements store.Engine.
func (e *timedEngine) SetMeta(meta []byte) error {
	_, err := timedCall(e.callerRecorder(), func() (*sqldb.Result, error) { return nil, e.Engine.SetMeta(meta) })
	return err
}

// timedConn decorates one session's store.Conn.
type timedConn struct {
	store.Conn
	rec *recorder
}

// ExecSQL implements store.Executor.
func (c *timedConn) ExecSQL(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	return timedCall(c.rec, func() (*sqldb.Result, error) { return c.Conn.ExecSQL(sql, params...) })
}

// Exec implements store.Executor.
func (c *timedConn) Exec(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	return timedCall(c.rec, func() (*sqldb.Result, error) { return c.Conn.Exec(st, params...) })
}

// ExecWithMeta implements store.Executor.
func (c *timedConn) ExecWithMeta(st sqlparser.Statement, meta []byte, params ...sqldb.Value) (*sqldb.Result, error) {
	return timedCall(c.rec, func() (*sqldb.Result, error) { return c.Conn.ExecWithMeta(st, meta, params...) })
}

// writeSpans writes every recorded span, one per line as tab-separated
// workload, session, statement id, span kind, label, parent index, start
// and end in nanoseconds from the run's epoch.
func writeSpans(path, workload string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "workload\tsession\tstmt\tkind\tlabel\tparent\tstart_ns\tend_ns")
	for _, r := range recs {
		for _, s := range r.spans {
			fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%s\t%d\t%d\t%d\n", workload, r.session, s.stmt, s.kind, s.label, s.parent, int64(s.start), int64(s.end))
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
