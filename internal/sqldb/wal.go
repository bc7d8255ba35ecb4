// Write-ahead logging for the embedded DBMS. The WAL makes committed
// writes durable: every autocommit statement (and every BEGIN..COMMIT
// transaction) appends one CRC-framed batch of physical redo records, and
// Open replays committed batches to reconstruct the exact in-memory state.
// CryptDB's security story depends on this — the proxy's onion-layer
// decisions are only meaningful if the ciphertexts they describe survive a
// restart — so the WAL also carries opaque "meta" records the proxy uses to
// commit its own metadata atomically with the server-side writes that
// change it (see ExecWithMeta).
//
// On-disk layout (everything little-endian-free: lengths and integers are
// big-endian or varint):
//
//	file   := header frame*
//	header := magic[8] version[4] reserved[4]
//	frame  := payloadLen[4] crc32(payload)[4] payload
//	payload:= seq[8] op*
//
// A frame is the unit of atomicity: a crash can only ever truncate the
// file inside the last frame, and replay stops at the first frame whose
// length or CRC does not check out, discarding the torn tail. Batch
// sequence numbers are strictly increasing; replay skips batches already
// covered by the snapshot (see snapshot.go).
package sqldb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fsutil"
	"repro/internal/sqlparser"
)

// WAL op kinds. Ops are physical: they record slots and cell values, not
// SQL, so replay is deterministic regardless of UDFs, randomness or
// planner decisions during the original execution.
const (
	walOpInsert      = 1 // table, slot, row values
	walOpDelete      = 2 // table, slot
	walOpUpdate      = 3 // table, slot, pos, new value
	walOpCreateTable = 4 // table, column defs (name, type, primary)
	walOpCreateIndex = 5 // table, column, unique flag, kind (hash/ordered)
	walOpDropTable   = 6 // table
	walOpMeta        = 7 // opaque application metadata blob
)

const (
	walMagic     = "CDBWAL\x00\x01"
	walVersion   = 1
	walHeaderLen = 16
	frameHdrLen  = 8
	// maxFrameLen rejects absurd lengths when scanning a (possibly
	// corrupt) log, bounding allocation.
	maxFrameLen = 1 << 30
)

// walOp is one decoded redo record.
type walOp struct {
	kind    byte
	table   string
	slot    int
	pos     int
	row     []Value
	val     Value
	cols    []walColDef
	column  string
	unique  bool
	ordered bool
	meta    []byte
}

type walColDef struct {
	name    string
	typ     sqlparser.ColType
	primary bool
}

//
// Encoding
//

func appendUvarint(buf []byte, u uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], u)
	return append(buf, tmp[:n]...)
}

func appendString(buf []byte, s string) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.Kind))
	switch v.Kind {
	case KindInt:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v.I))
		buf = append(buf, b[:]...)
	case KindText:
		buf = appendString(buf, v.S)
	case KindBlob:
		buf = appendUvarint(buf, uint64(len(v.B)))
		buf = append(buf, v.B...)
	}
	return buf
}

func appendInsertOp(buf []byte, table string, slot int, row []Value) []byte {
	buf = append(buf, walOpInsert)
	buf = appendString(buf, table)
	buf = appendUvarint(buf, uint64(slot))
	buf = appendUvarint(buf, uint64(len(row)))
	for _, v := range row {
		buf = appendValue(buf, v)
	}
	return buf
}

func appendDeleteOp(buf []byte, table string, slot int) []byte {
	buf = append(buf, walOpDelete)
	buf = appendString(buf, table)
	return appendUvarint(buf, uint64(slot))
}

func appendUpdateOp(buf []byte, table string, slot, pos int, v Value) []byte {
	buf = append(buf, walOpUpdate)
	buf = appendString(buf, table)
	buf = appendUvarint(buf, uint64(slot))
	buf = appendUvarint(buf, uint64(pos))
	return appendValue(buf, v)
}

func appendCreateTableOp(buf []byte, table string, cols []walColDef) []byte {
	buf = append(buf, walOpCreateTable)
	buf = appendString(buf, table)
	buf = appendUvarint(buf, uint64(len(cols)))
	for _, c := range cols {
		buf = appendString(buf, c.name)
		buf = append(buf, byte(c.typ))
		if c.primary {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

func appendCreateIndexOp(buf []byte, table, column string, unique, ordered bool) []byte {
	buf = append(buf, walOpCreateIndex)
	buf = appendString(buf, table)
	buf = appendString(buf, column)
	flags := byte(0)
	if unique {
		flags |= 1
	}
	if ordered {
		flags |= 2
	}
	return append(buf, flags)
}

func appendDropTableOp(buf []byte, table string) []byte {
	buf = append(buf, walOpDropTable)
	return appendString(buf, table)
}

func appendMetaOp(buf []byte, meta []byte) []byte {
	buf = append(buf, walOpMeta)
	buf = appendUvarint(buf, uint64(len(meta)))
	return append(buf, meta...)
}

//
// Decoding
//

type walDecoder struct {
	buf []byte
	off int
}

func (d *walDecoder) done() bool { return d.off >= len(d.buf) }

func (d *walDecoder) byte() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *walDecoder) uvarint() (uint64, error) {
	u, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	d.off += n
	return u, nil
}

func (d *walDecoder) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(d.buf)-d.off) {
		return nil, io.ErrUnexpectedEOF
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

func (d *walDecoder) string() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	b, err := d.bytes(n)
	return string(b), err
}

func (d *walDecoder) value() (Value, error) {
	k, err := d.byte()
	if err != nil {
		return Value{}, err
	}
	switch Kind(k) {
	case KindNull:
		return Null(), nil
	case KindInt:
		b, err := d.bytes(8)
		if err != nil {
			return Value{}, err
		}
		return Int(int64(binary.BigEndian.Uint64(b))), nil
	case KindText:
		s, err := d.string()
		return Text(s), err
	case KindBlob:
		n, err := d.uvarint()
		if err != nil {
			return Value{}, err
		}
		b, err := d.bytes(n)
		if err != nil {
			return Value{}, err
		}
		return Blob(append([]byte(nil), b...)), nil
	}
	return Value{}, fmt.Errorf("sqldb: wal: unknown value kind %d", k)
}

func (d *walDecoder) op() (walOp, error) {
	kind, err := d.byte()
	if err != nil {
		return walOp{}, err
	}
	op := walOp{kind: kind}
	switch kind {
	case walOpInsert:
		if op.table, err = d.string(); err != nil {
			return op, err
		}
		slot, err := d.uvarint()
		if err != nil {
			return op, err
		}
		op.slot = int(slot)
		n, err := d.uvarint()
		if err != nil {
			return op, err
		}
		op.row = make([]Value, n)
		for i := range op.row {
			if op.row[i], err = d.value(); err != nil {
				return op, err
			}
		}
	case walOpDelete:
		if op.table, err = d.string(); err != nil {
			return op, err
		}
		slot, err := d.uvarint()
		if err != nil {
			return op, err
		}
		op.slot = int(slot)
	case walOpUpdate:
		if op.table, err = d.string(); err != nil {
			return op, err
		}
		slot, err := d.uvarint()
		if err != nil {
			return op, err
		}
		pos, err := d.uvarint()
		if err != nil {
			return op, err
		}
		op.slot, op.pos = int(slot), int(pos)
		if op.val, err = d.value(); err != nil {
			return op, err
		}
	case walOpCreateTable:
		if op.table, err = d.string(); err != nil {
			return op, err
		}
		n, err := d.uvarint()
		if err != nil {
			return op, err
		}
		op.cols = make([]walColDef, n)
		for i := range op.cols {
			if op.cols[i].name, err = d.string(); err != nil {
				return op, err
			}
			t, err := d.byte()
			if err != nil {
				return op, err
			}
			p, err := d.byte()
			if err != nil {
				return op, err
			}
			op.cols[i].typ = sqlparser.ColType(t)
			op.cols[i].primary = p != 0
		}
	case walOpCreateIndex:
		if op.table, err = d.string(); err != nil {
			return op, err
		}
		if op.column, err = d.string(); err != nil {
			return op, err
		}
		flags, err := d.byte()
		if err != nil {
			return op, err
		}
		op.unique = flags&1 != 0
		op.ordered = flags&2 != 0
	case walOpDropTable:
		if op.table, err = d.string(); err != nil {
			return op, err
		}
	case walOpMeta:
		n, err := d.uvarint()
		if err != nil {
			return op, err
		}
		b, err := d.bytes(n)
		if err != nil {
			return op, err
		}
		op.meta = append([]byte(nil), b...)
	default:
		return op, fmt.Errorf("sqldb: wal: unknown op kind %d", kind)
	}
	return op, nil
}

//
// Replay: apply a decoded op to the database. Used both for WAL recovery
// and for loading snapshots (a snapshot is a self-contained op stream that
// rebuilds the whole database). Ops bypass the SQL layer: the original
// execution already validated them, so constraint checks are skipped.
//

func (db *DB) applyOp(op walOp) error {
	switch op.kind {
	case walOpCreateTable:
		if _, exists := db.tables[op.table]; exists {
			return fmt.Errorf("sqldb: wal replay: table %s already exists", op.table)
		}
		cols := make([]Column, len(op.cols))
		for i, c := range op.cols {
			cols[i] = Column{Name: c.name, Type: c.typ, Primary: c.primary}
		}
		t := newTable(op.table, cols)
		db.adoptTable(t)
		for _, c := range op.cols {
			if c.primary {
				if err := t.addIndex(c.name, true); err != nil {
					return err
				}
			}
		}
		db.tables[op.table] = t
		return nil
	case walOpCreateIndex:
		t, ok := db.tables[op.table]
		if !ok {
			return fmt.Errorf("sqldb: wal replay: no table %s", op.table)
		}
		if op.ordered {
			return t.addOrdIndex(op.column)
		}
		return t.addIndex(op.column, op.unique)
	case walOpDropTable:
		t, ok := db.tables[op.table]
		if !ok {
			return fmt.Errorf("sqldb: wal replay: no table %s", op.table)
		}
		if db.pager != nil {
			db.pager.forgetTable(t)
		}
		delete(db.tables, op.table)
		return nil
	case walOpInsert:
		t, ok := db.tables[op.table]
		if !ok {
			return fmt.Errorf("sqldb: wal replay: no table %s", op.table)
		}
		return t.placeRow(op.slot, op.row)
	case walOpDelete:
		t, ok := db.tables[op.table]
		if !ok {
			return fmt.Errorf("sqldb: wal replay: no table %s", op.table)
		}
		t.deleteRow(op.slot)
		return nil
	case walOpUpdate:
		t, ok := db.tables[op.table]
		if !ok {
			return fmt.Errorf("sqldb: wal replay: no table %s", op.table)
		}
		if op.slot >= t.slotCount() || t.rowAt(op.slot) == nil {
			return fmt.Errorf("sqldb: wal replay: update of empty slot %d in %s", op.slot, op.table)
		}
		t.updateCellUnchecked(op.slot, op.pos, op.val)
		return nil
	case walOpMeta:
		db.meta = op.meta
		atomic.AddUint64(&db.metaVer, 1)
		return nil
	}
	return fmt.Errorf("sqldb: wal replay: unknown op kind %d", op.kind)
}

//
// WAL file writer with group commit.
//
// Committers do not write the file themselves. Under the database lock they
// enqueue their framed batch into the current cohort (a cheap memcpy, so
// frames land in the file in sequence order — recovery depends on the log
// being a dependency-ordered prefix); after releasing the database lock they
// wait for the cohort to reach disk. The first waiter becomes the leader: it
// takes the cohort, performs one write+fsync for every batch in it, and then
// keeps flushing any cohorts that accumulated behind it before stepping
// down. N concurrent committers therefore pay ~1 fsync instead of N — the
// transparent amortization the durability figure shows fsync needs (it
// dominates the write path ~40x).
//
// Cohorts only amortize if committers actually overlap. Committers announce
// themselves (announce/retire) when they enter the commit path, and the
// leader grants announced-but-not-yet-staged committers a brief yield
// window (bounded by groupCommitWindow, a fraction of one fsync) to get
// their frames into the cohort before it pays the fsync. Without this, a
// machine with few cores degenerates into a convoy — the leader's fsync
// syscall monopolizes the CPU, waiters only run between fsyncs, and every
// cohort ends up holding a single batch.
//

// groupCommitWindow bounds how long a leader waits for announced committers
// to stage their frames before flushing. Small against one fsync (~100µs on
// a local SSD, milliseconds on spinning or networked storage), so worst
// case it adds a fraction of the latency it can save.
const groupCommitWindow = 200 * time.Microsecond

// walCohort is one group of framed batches that will hit the disk in a
// single write+fsync.
type walCohort struct {
	frames []byte        // concatenated frames, in enqueue (= sequence) order
	n      int64         // batches in the cohort
	done   chan struct{} // closed once the cohort is on disk (or failed)
	err    error         // set before done is closed
	lead   chan struct{} // leadership baton (buffered 1; see waitFlush)
}

type walWriter struct {
	f       *os.File
	path    string
	fsync   bool
	noGroup bool // ablation: one private cohort (and one fsync) per commit

	mu       sync.Mutex
	cond     *sync.Cond   // signaled when a leader steps down
	queue    []*walCohort // staged cohorts; the tail accepts enqueues
	flushing bool         // some goroutine holds (or is being handed) leadership
	closed   bool
	// failed poisons the writer after a cohort write or sync error: the
	// file may hold a torn frame at an unknown offset, and appending past
	// it would let recovery silently discard later acknowledged commits
	// (replay cuts at the first damaged frame). Every subsequent commit
	// fails fast instead. A successful reset (checkpoint) clears it: the
	// snapshot captured the state and the truncated log is whole again.
	failed error

	// announced counts committers currently inside the commit path
	// (announce..retire); staged counts frames sitting in the queue.
	// announced > staged means more committers are on their way and a
	// leader should give them a moment to join the cohort.
	announced int64
	staged    int64

	// taps are live replication subscribers (guarded by mu). A cohort's
	// frames are handed to every tap after — never before — its
	// write+fsync succeeds, so a follower can only ever see durable
	// commits.
	taps []*LogTap

	// stats (atomics: read by WALStats without the writer lock)
	size    int64
	batches int64
	bytes   int64
	syncs   int64
}

// announce registers an in-flight committer; retire must follow once its
// batch is durable (or its statement failed before producing one).
func (w *walWriter) announce() { atomic.AddInt64(&w.announced, 1) }
func (w *walWriter) retire()   { atomic.AddInt64(&w.announced, -1) }

func newWALHeader() []byte {
	h := make([]byte, walHeaderLen)
	copy(h, walMagic)
	binary.BigEndian.PutUint32(h[8:], walVersion)
	return h
}

// createWAL creates (or truncates) a WAL file with a fresh header.
func createWAL(path string, fsync, noGroup bool) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, fmt.Errorf("sqldb: creating wal: %w", err)
	}
	if _, err := f.Write(newWALHeader()); err != nil {
		f.Close()
		return nil, fmt.Errorf("sqldb: writing wal header: %w", err)
	}
	w := newWALWriter(f, path, walHeaderLen, fsync, noGroup)
	if fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("sqldb: wal sync: %w", err)
		}
	}
	return w, nil
}

func newWALWriter(f *os.File, path string, size int64, fsync, noGroup bool) *walWriter {
	w := &walWriter{f: f, path: path, size: size, fsync: fsync, noGroup: noGroup}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// buildFrame frames one batch: length, CRC, then seq-prefixed ops.
func buildFrame(seq uint64, ops []byte) []byte {
	payload := make([]byte, 8+len(ops))
	binary.BigEndian.PutUint64(payload, seq)
	copy(payload[8:], ops)
	frame := make([]byte, frameHdrLen+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[frameHdrLen:], payload)
	return frame
}

// enqueue stages one committed batch into the current cohort and returns a
// handle to wait on. MUST be called while the caller still holds the
// database write lock that assigned seq: cohort order is file order, and
// recovery requires the log to be a dependency-ordered prefix (a batch that
// updates a row may never precede the batch that inserted it).
func (w *walWriter) enqueue(seq uint64, ops []byte) *walCohort {
	frame := buildFrame(seq, ops)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.failed != nil {
		err := w.failed
		if err == nil {
			err = fmt.Errorf("sqldb: wal is closed")
		} else {
			err = fmt.Errorf("sqldb: wal disabled by earlier write failure: %w", err)
		}
		c := &walCohort{err: err, done: make(chan struct{})}
		close(c.done)
		return c
	}
	// The tail cohort accepts new frames; a cohort being flushed has
	// already been popped, so it can no longer grow. In noGroup mode
	// every batch gets a private cohort — and its own fsync.
	if len(w.queue) == 0 || w.noGroup {
		w.queue = append(w.queue, &walCohort{done: make(chan struct{}), lead: make(chan struct{}, 1)})
	}
	c := w.queue[len(w.queue)-1]
	c.frames = append(c.frames, frame...)
	c.n++
	atomic.AddInt64(&w.staged, 1)
	return c
}

// waitFlush blocks until c is durable. The first committer to arrive while
// no flush is in progress becomes the leader; a committer arriving during a
// flush waits for either its cohort's verdict or the leadership baton — the
// outgoing leader hands the baton to the next staged cohort once its own
// cohort is durable, so under sustained load leadership rotates instead of
// capturing one unlucky session for the duration of the burst.
func (w *walWriter) waitFlush(c *walCohort) error {
	w.mu.Lock()
	if w.flushing {
		w.mu.Unlock()
		select {
		case <-c.done:
			return c.err
		case <-c.lead:
			w.mu.Lock() // baton received: leadership (flushing stays true)
		}
	} else {
		w.flushing = true
	}
	return w.leadUntilDone(c)
}

// leadUntilDone flushes cohorts in order until c is durable, then hands
// leadership to a waiter of the next staged cohort (or steps down when the
// queue is empty). Called with w.mu held and leadership owned; returns with
// w.mu released.
func (w *walWriter) leadUntilDone(c *walCohort) error {
	for {
		select {
		case <-c.done:
			if len(w.queue) > 0 {
				next := w.queue[0]
				w.mu.Unlock()
				next.lead <- struct{}{} // buffered: waiter may not have arrived yet
			} else {
				w.flushing = false
				w.cond.Broadcast()
				w.mu.Unlock()
			}
			return c.err
		default:
		}
		// Hold the head cohort open for announced stragglers before
		// popping it: enqueue only ever appends to the queue tail, so the
		// window is useless once the cohort has left the queue. The queue
		// cannot be empty here — c is staged and unflushed, and only the
		// leader pops.
		if w.failed == nil {
			w.awaitStragglers()
		}
		w.flushHeadLocked()
	}
}

// flushHeadLocked pops the head cohort and disposes of it: failed fast
// when the writer is poisoned, written+synced otherwise, with any error
// promoted into the sticky failure. Called with w.mu held and the flushing
// flag owned; returns with w.mu held.
func (w *walWriter) flushHeadLocked() {
	cohort := w.queue[0]
	w.queue = w.queue[1:]
	atomic.AddInt64(&w.staged, -cohort.n)
	if w.failed != nil {
		cohort.err = fmt.Errorf("sqldb: wal disabled by earlier write failure: %w", w.failed)
		close(cohort.done)
		return
	}
	w.mu.Unlock()
	w.flushCohort(cohort)
	w.mu.Lock()
	if cohort.err != nil && w.failed == nil {
		w.failed = cohort.err
	}
	if cohort.err == nil {
		// Deliver under w.mu: the flushing flag serializes flushes, and
		// delivering before the next cohort can flush keeps every tap in
		// file (= sequence) order.
		for _, t := range w.taps {
			t.deliver(cohort.frames)
		}
	}
}

// removeTap unsubscribes a tap.
func (w *walWriter) removeTap(tap *LogTap) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, t := range w.taps {
		if t == tap {
			w.taps = append(w.taps[:i], w.taps[i+1:]...)
			return
		}
	}
}

// invalidateTaps marks every subscriber lagged: the log's contents no
// longer continue the stream the taps have seen, so subscribers must
// re-establish (and possibly resync from a snapshot).
func (w *walWriter) invalidateTaps() {
	w.mu.Lock()
	taps := append([]*LogTap(nil), w.taps...)
	w.mu.Unlock()
	for _, t := range taps {
		t.invalidate()
	}
}

// awaitStragglers yields briefly (bounded by groupCommitWindow) while more
// committers are announced than staged, so their frames make this cohort's
// fsync instead of forcing their own. Called by the leader with w.mu held;
// returns with w.mu held. Skipped when fsync is off (nothing expensive to
// share) and in the noGroup ablation.
func (w *walWriter) awaitStragglers() {
	if !w.fsync || w.noGroup {
		return
	}
	w.mu.Unlock()
	// One unconditional yield before sampling: concurrent committers can
	// only announce and stage while this goroutine gives up the CPU — the
	// fsync below is a syscall that never does, so on a single-core host
	// this yield is the only thing that lets cohorts form at all.
	runtime.Gosched()
	deadline := time.Now().Add(groupCommitWindow)
	for atomic.LoadInt64(&w.announced) > atomic.LoadInt64(&w.staged) {
		runtime.Gosched()
		if time.Now().After(deadline) {
			break
		}
	}
	w.mu.Lock()
}

// flushCohort writes one cohort to the file and syncs it. Runs outside
// w.mu; the flushing flag guarantees a single writer.
func (w *walWriter) flushCohort(c *walCohort) {
	_, err := w.f.Write(c.frames)
	if err != nil {
		err = fmt.Errorf("sqldb: wal append: %w", err)
	} else if w.fsync {
		if serr := w.f.Sync(); serr != nil {
			err = fmt.Errorf("sqldb: wal sync: %w", serr)
		} else {
			atomic.AddInt64(&w.syncs, 1)
		}
	}
	if err == nil {
		atomic.AddInt64(&w.size, int64(len(c.frames)))
		atomic.AddInt64(&w.batches, c.n)
		atomic.AddInt64(&w.bytes, int64(len(c.frames)))
	}
	c.err = err
	close(c.done)
}

// drainLocked flushes every staged cohort and waits for any in-flight
// leader, leaving the writer idle. Called with w.mu held.
func (w *walWriter) drainLocked() {
	for len(w.queue) > 0 || w.flushing {
		if w.flushing {
			w.cond.Wait()
			continue
		}
		w.flushing = true
		w.flushHeadLocked()
		w.flushing = false
		w.cond.Broadcast()
	}
}

// reset truncates the log back to an empty header (after a checkpoint made
// its contents redundant). Any cohort staged before the reset is flushed
// first so its waiters still get a verdict; replay would skip those batches
// anyway because the snapshot's sequence number covers them.
func (w *walWriter) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.drainLocked()
	if err := w.f.Truncate(walHeaderLen); err != nil {
		return fmt.Errorf("sqldb: wal truncate: %w", err)
	}
	if _, err := w.f.Seek(walHeaderLen, io.SeekStart); err != nil {
		return fmt.Errorf("sqldb: wal seek: %w", err)
	}
	atomic.StoreInt64(&w.size, walHeaderLen)
	if w.fsync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("sqldb: wal sync: %w", err)
		}
		atomic.AddInt64(&w.syncs, 1)
	}
	// The truncated log is whole again and the checkpoint that called us
	// captured the full state, so a write failure that poisoned the
	// writer is cured. Commits that failed during the poisoned window
	// applied in memory without ever reaching a tap, so any subscriber now
	// has a gap: invalidate them (they must resync via snapshot).
	if w.failed != nil {
		for _, t := range w.taps {
			t.invalidate()
		}
	}
	w.failed = nil
	return nil
}

// truncateTo rewrites the log keeping only frames with seq > keep, after an
// incremental checkpoint whose manifest covers everything up to keep. Unlike
// reset, commits may have landed since the checkpoint captured its state —
// their frames must survive the truncation, and in one contiguous log so
// replication backfill (readFrames on this same path) keeps working. The
// rewrite is atomic: temp file + rename, so a crash leaves either log, both
// correct to replay against the new manifest. As with reset, a successful
// truncation cures a poisoned writer — the manifest captured every state the
// damaged frames described — but subscribers must resync.
func (w *walWriter) truncateTo(keep uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("sqldb: wal is closed")
	}
	w.drainLocked()
	// A torn frame left by the poisoning failure decodes as damage and is
	// dropped here; its batch carries seq <= keep (the checkpoint ran after
	// it applied), so the manifest already covers it.
	frames, err := readFrames(w.path, keep)
	if err != nil {
		return fmt.Errorf("sqldb: wal truncate scan: %w", err)
	}
	tmp := w.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("sqldb: wal truncate: %w", err)
	}
	if _, err := f.Write(newWALHeader()); err == nil {
		_, err = f.Write(frames)
	}
	if err == nil && w.fsync {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("sqldb: wal truncate write: %w", err)
	}
	if err := os.Rename(tmp, w.path); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("sqldb: wal truncate rename: %w", err)
	}
	if w.fsync {
		if err := fsutil.SyncDir(filepath.Dir(w.path)); err != nil {
			f.Close()
			return err
		}
		atomic.AddInt64(&w.syncs, 1)
	}
	old := w.f
	w.f = f
	//cryptdb:vet-ok durabilityerr: old descriptor is fully synced and replaced; nothing left to flush
	old.Close()
	atomic.StoreInt64(&w.size, int64(walHeaderLen+len(frames)))
	if w.failed != nil {
		for _, t := range w.taps {
			t.invalidate()
		}
	}
	w.failed = nil
	return nil
}

func (w *walWriter) close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.drainLocked()
	w.closed = true
	w.mu.Unlock()
	if w.fsync {
		if err := w.f.Sync(); err != nil {
			w.f.Close()
			return err
		}
	}
	return w.f.Close()
}

// walBatch is one committed batch read back during recovery.
type walBatch struct {
	seq uint64
	ops []walOp
}

// readWAL scans a WAL file, returning every intact committed batch and the
// byte offset of the first damaged or missing frame. A torn or corrupt
// tail is expected after a crash and is simply cut off; corruption in the
// middle of the file cannot be distinguished from a torn tail by the
// scanner, so everything after the damage is discarded either way.
func readWAL(path string) (batches []walBatch, goodOffset int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(data) < walHeaderLen || string(data[:8]) != walMagic {
		return nil, 0, fmt.Errorf("sqldb: %s is not a wal file", path)
	}
	if v := binary.BigEndian.Uint32(data[8:12]); v != walVersion {
		return nil, 0, fmt.Errorf("sqldb: wal version %d not supported", v)
	}
	off := int64(walHeaderLen)
	for {
		rest := data[off:]
		if len(rest) < frameHdrLen {
			return batches, off, nil
		}
		plen := binary.BigEndian.Uint32(rest)
		if plen < 8 || plen > maxFrameLen || int(plen) > len(rest)-frameHdrLen {
			return batches, off, nil
		}
		want := binary.BigEndian.Uint32(rest[4:])
		payload := rest[frameHdrLen : frameHdrLen+int(plen)]
		if crc32.ChecksumIEEE(payload) != want {
			return batches, off, nil
		}
		b := walBatch{seq: binary.BigEndian.Uint64(payload)}
		d := &walDecoder{buf: payload[8:]}
		ok := true
		for !d.done() {
			op, err := d.op()
			if err != nil {
				ok = false // framed but undecodable: treat as damage
				break
			}
			b.ops = append(b.ops, op)
		}
		if !ok {
			return batches, off, nil
		}
		batches = append(batches, b)
		off += int64(frameHdrLen) + int64(plen)
	}
}
