// Page-grouped row storage. A table's slot space is split into fixed-size
// groups of pageSlots rows ("pages"); slot s lives in page s>>pageShift at
// local index s&pageMask. Every storage mode shares this layout:
//
//   - Resident (pager == nil): every page is always materialized. This is
//     the seed's semantics — and the equivalence oracle the paged engine is
//     tested against — at the cost of one extra pointer hop per row access.
//   - Paged (pager != nil): a page may be evicted to its on-disk segment
//     (see ckpt_incremental.go) and faulted back on demand, under the byte
//     budget the buffer cache enforces (see bufpool.go).
//   - Union (parts != nil): a read-only view over the same table on
//     several databases (the sharded store's cross-shard reads; see
//     DB.SelectUnion). Its pages are the parts' pages, borrowed: resident
//     ones by pointer when the union is built, the rest faulted through
//     the owning part (borrowPage) and never kept by the union.
//
// Concurrency contract, inherited from DB: all mutation happens under
// db.mu's write side; reads run under the read side. Faulting a page in is
// a read-side operation (an atomic nil -> page CompareAndSwap), eviction is
// too (page -> nil) — the two can only race each other, never a mutator,
// and the loser of an install race simply discards its copy. A reader that
// obtained a page pointer before eviction keeps reading its private copy
// safely: eviction just drops the reference and the GC keeps it alive.
// Because of that, pages need no pin counts.
package sqldb

import (
	"fmt"
	"sort"
	"sync/atomic"
)

const (
	pageShift = 8
	pageSlots = 1 << pageShift // rows per page
	pageMask  = pageSlots - 1
)

// pageOverhead approximates the fixed memory cost of one materialized page
// (the slot array plus bookkeeping), charged against the cache budget so a
// budget is meaningful even for tables full of tiny rows.
const pageOverhead = pageSlots*24 + 128

// rowPage is one materialized page: a fixed array of row slices (nil =
// empty slot / tombstone) plus cache bookkeeping. The bool flags are only
// touched under db.mu's write side (mutators, checkpoint phases); ref is
// atomic because the read side bumps it.
type rowPage struct {
	rows [pageSlots][]Value
	// bytes is the payload size of the live rows on this page (sum of
	// Value.SizeBytes); live counts them. Maintained incrementally.
	bytes int
	live  int
	// dirty marks the page as modified since the last installed checkpoint:
	// its on-disk segment (if any) is stale, so it must not be evicted and
	// the next incremental checkpoint must rewrite it.
	dirty bool
	// flushing marks a page whose checkpoint image has been captured
	// (phase 1) but whose segment is not yet installed (phase 3). Eviction
	// skips it: a re-fault in the window would read the previous segment.
	flushing bool
	// hot marks an L1 (pinned) page: the clock sweep skips it until a
	// starved sweep demotes. Written under pager.mu.
	hot atomic.Bool
	// ref is the clock referenced counter: bumped on access, cleared by the
	// sweep. Crossing hotPromoteHits between sweeps promotes the page to L1.
	ref atomic.Int32
}

// pageDiskRec locates a page's current on-disk segment; file is "" when the
// page has never been checkpointed (or was empty at the last checkpoint).
type pageDiskRec struct {
	file  string
	bytes int64
}

// PageFaultError reports that a row page could not be read back from its
// on-disk segment. It is raised as a panic inside row access paths (which
// have no error returns) and converted back into an ordinary error at
// statement entry; like DurabilityError, a write statement that observes
// one may have applied some of its effects in memory.
type PageFaultError struct {
	Table string
	Page  int
	Err   error
}

// Error implements the error interface.
func (e *PageFaultError) Error() string {
	return fmt.Sprintf("sqldb: faulting page %d of %s: %v", e.Page, e.Table, e.Err)
}

// Unwrap exposes the underlying I/O error.
func (e *PageFaultError) Unwrap() error { return e.Err }

// catchPageFault converts a PageFaultError panic raised by a row accessor
// into the deferred caller's error return. Any other panic propagates.
func catchPageFault(err *error) {
	if r := recover(); r != nil {
		pf, ok := r.(*PageFaultError)
		if !ok {
			panic(r)
		}
		*err = pf
	}
}

// slotCount is the table's slot-space size: every live row has slot <
// slotCount. (The last page may extend past it; those cells are unused.)
func (t *Table) slotCount() int { return t.nslots }

// page returns the materialized page id, faulting it in from disk when
// evicted. Callers hold db.mu (either side).
func (t *Table) page(id int) *rowPage {
	p := t.pages[id].Load()
	if p != nil {
		if pg := t.pager; pg != nil {
			pg.hits.Add(1)
			if p.ref.Add(1) == hotPromoteHits {
				pg.promote(p)
			}
		}
		return p
	}
	return t.faultPage(id)
}

// rowAt returns the row in slot (nil for an empty slot), faulting its page
// in if needed. Callers hold db.mu (either side).
func (t *Table) rowAt(slot int) []Value {
	return t.page(slot >> pageShift).rows[slot&pageMask]
}

// borrowPage returns page id of a union table from the part that owns it,
// faulting it through that part's pager and disk record if it is not
// resident. The union does not keep the page: it stays charged to, and
// evictable by, the part's own cache. A failed read panics with the
// part's *PageFaultError, which the union's statement returns.
func (t *Table) borrowPage(id int) *rowPage {
	i := sort.Search(len(t.parts), func(i int) bool { return t.parts[i].base > id }) - 1
	return t.parts[i].t.page(id - t.parts[i].base)
}

// Batch sizes for index-driven reads of paged tables: the first batch
// holds the rows the caller expects to need (its LIMIT plus OFFSET, when
// known), and each further batch doubles, up to maxFetchBatch.
const (
	minFetchBatch = 16
	maxFetchBatch = 256
)

// nextBatch clamps a batch size into [minFetchBatch, maxFetchBatch].
func nextBatch(n int) int {
	return min(max(n, minFetchBatch), maxFetchBatch)
}

// fetchRows visits the live rows of slots in the given order. On a paged
// table each distinct page of the batch is looked up, and faulted if
// evicted, exactly once, and the batch holds the page pointers until it
// has visited every slot: a page that the batch's own faults evict is read
// from the held copy, never faulted again. fn returns false to stop;
// fetchRows reports whether it visited every slot. Callers hold db.mu
// (either side).
func (t *Table) fetchRows(slots []int, fn func(slot int, row []Value) bool) bool {
	if t.pager == nil && t.parts == nil { // resident pages never fault
		for _, slot := range slots {
			if row := t.rowAt(slot); row != nil && !fn(slot, row) {
				return false
			}
		}
		return true
	}
	held := make(map[int]*rowPage, len(slots))
	pages := make([]*rowPage, len(slots))
	for i, slot := range slots {
		id := slot >> pageShift
		p := held[id]
		if p == nil {
			p = t.page(id)
			held[id] = p
		}
		pages[i] = p
	}
	for i, slot := range slots {
		if row := pages[i].rows[slot&pageMask]; row != nil && !fn(slot, row) {
			return false
		}
	}
	return true
}

// fetchSlots visits the live rows of slots in order, through fetchRows in
// doubling batches, so a page holding many of the slots is faulted once
// per batch rather than once per row. fn returns false to stop.
func (t *Table) fetchSlots(slots []int, fn func(slot int, row []Value) bool) {
	for size := minFetchBatch; len(slots) > 0; size = nextBatch(2 * size) {
		n := min(size, len(slots))
		if !t.fetchRows(slots[:n], fn) {
			return
		}
		slots = slots[n:]
	}
}

// fetchOrdered visits the live rows of ix's entries in rng in index order
// (descending when desc; equal keys in slot order either way), through
// fetchRows in batches that start at first slots and double. fn returns
// false to stop.
func (t *Table) fetchOrdered(ix *ordIndex, rng ordRange, desc bool, first int, fn func(slot int, row []Value) bool) {
	walk := ix.ascendRange
	if desc {
		walk = ix.descendRange
	}
	size := nextBatch(first)
	batch := make([]int, 0, size)
	more := true
	walk(rng, func(n *ordNode) bool {
		for _, slot := range n.slots {
			if batch = append(batch, slot); len(batch) == size {
				more = t.fetchRows(batch, fn)
				batch, size = batch[:0], nextBatch(2*size)
				if !more {
					return false
				}
			}
		}
		return true
	})
	if more && len(batch) > 0 {
		t.fetchRows(batch, fn)
	}
}

// growTo extends the slot space to at least n slots, materializing fresh
// empty pages for any new page ids. Callers hold db.mu's write side.
func (t *Table) growTo(n int) {
	if n > t.nslots {
		t.nslots = n
	}
	want := (t.nslots + pageMask) >> pageShift
	for len(t.pages) < want {
		t.pages = append(t.pages, atomic.Pointer[rowPage]{})
		p := &rowPage{}
		t.pages[len(t.pages)-1].Store(p)
		if t.pager != nil {
			t.pager.admit(t, len(t.pages)-1, p)
		}
	}
	if t.pager != nil {
		for len(t.disk) < len(t.pages) {
			t.disk = append(t.disk, pageDiskRec{})
		}
	}
}

// markDirty flags a page as modified since the last checkpoint. Callers
// hold db.mu's write side.
func (t *Table) markDirty(p *rowPage) {
	if !p.dirty {
		p.dirty = true
		if t.pager != nil {
			t.pager.dirtyPages.Add(1)
		}
	}
}

// putRow stores a row into slot (which must be empty), growing the slot
// space as needed and maintaining size accounting and the dirty flag.
// Index maintenance is the caller's job. Callers hold db.mu's write side.
func (t *Table) putRow(slot int, row []Value) {
	t.growTo(slot + 1)
	p := t.page(slot >> pageShift)
	p.rows[slot&pageMask] = row
	p.live++
	sz := rowBytes(row)
	p.bytes += sz
	t.dataBytes += sz
	t.markDirty(p)
	if t.pager != nil {
		t.pager.resident.Add(int64(sz))
	}
}

// clearRow removes the row in slot from its page (which must be resident),
// maintaining accounting. Index maintenance is the caller's job.
func (t *Table) clearRow(p *rowPage, slot int) {
	row := p.rows[slot&pageMask]
	p.rows[slot&pageMask] = nil
	p.live--
	sz := rowBytes(row)
	p.bytes -= sz
	t.dataBytes -= sz
	t.markDirty(p)
	if t.pager != nil {
		t.pager.resident.Add(int64(-sz))
	}
}

// rowBytes is the payload size of one row, the unit of all byte accounting.
func rowBytes(row []Value) int {
	total := 0
	for _, v := range row {
		total += v.SizeBytes()
	}
	return total
}
