package sqldb

import "strings"

// ordIndex is an ordered secondary index: a skiplist over Value.OrdKey with
// the row slots per key. It is what lets range predicates, ORDER BY ...
// LIMIT and MIN/MAX run off sorted ciphertexts (OPE) instead of a full scan
// plus sort — the paper's §3.3 "DBMS builds ordinary indexes on OPE
// ciphertexts". Writers hold the database lock, so the structure needs no
// internal locking; readers under the shared lock never mutate it.
type ordIndex struct {
	column  string
	pos     int
	head    *ordNode // sentinel; head.next[l] is the first node at level l
	level   int      // levels currently in use
	keys    int      // distinct keys
	entries int      // total (key, slot) pairs
	// kindCount tracks how many entries hold each Value kind; the planner
	// only trusts OrdKey order when the indexed column is kind-homogeneous
	// (NULLs aside), since SQL comparison coerces across kinds.
	kindCount [4]int
	rng       uint64 // xorshift state for level selection
}

const (
	ordMaxLevel = 20
	nullOrdKey  = "\x00"
)

type ordNode struct {
	key   string
	val   Value // representative value for the key (MIN/MAX endpoints)
	slots []int // ascending, so ties come out in slot order like a scan
	next  []*ordNode
	prev  *ordNode // level-0 predecessor (head for the first node)
}

func newOrdIndex(column string, pos int) *ordIndex {
	return &ordIndex{
		column: column,
		pos:    pos,
		head:   &ordNode{next: make([]*ordNode, ordMaxLevel)},
		level:  1,
		rng:    0x9e3779b97f4a7c15,
	}
}

func (ix *ordIndex) randLevel() int {
	ix.rng ^= ix.rng << 13
	ix.rng ^= ix.rng >> 7
	ix.rng ^= ix.rng << 17
	x := ix.rng
	lvl := 1
	for lvl < ordMaxLevel && x&3 == 0 { // p = 1/4
		lvl++
		x >>= 2
	}
	return lvl
}

// insert adds one (value, slot) entry.
func (ix *ordIndex) insert(v Value, slot int) {
	key := v.OrdKey()
	var update [ordMaxLevel]*ordNode
	n := ix.head
	for l := ix.level - 1; l >= 0; l-- {
		for n.next[l] != nil && n.next[l].key < key {
			n = n.next[l]
		}
		update[l] = n
	}
	ix.entries++
	ix.kindCount[v.Kind]++
	if hit := update[0].next[0]; hit != nil && hit.key == key {
		hit.slots = insertSlot(hit.slots, slot)
		return
	}
	lvl := ix.randLevel()
	for ix.level < lvl {
		update[ix.level] = ix.head
		ix.level++
	}
	node := &ordNode{key: key, val: detachValue(v, key), slots: []int{slot}, next: make([]*ordNode, lvl)}
	for l := 0; l < lvl; l++ {
		node.next[l] = update[l].next[l]
		update[l].next[l] = node
	}
	node.prev = update[0]
	if node.next[0] != nil {
		node.next[0].prev = node
	}
	ix.keys++
}

// detachValue returns v with no bytes shared with the row it came from.
// An index outlives the page a row was decoded from, and a faulted page's
// text and blob cells are slices of one per-page arena (parseSegFile), so
// keeping a cell would pin the whole arena after the page is evicted.
// Text reuses the index key's copy (key is OrdKey: a tag byte, then the
// text); blobs are copied.
func detachValue(v Value, key string) Value {
	switch v.Kind {
	case KindText:
		v.S = key[1:]
	case KindBlob:
		v.B = append([]byte(nil), v.B...)
	}
	return v
}

// remove drops one (value, slot) entry; a no-op if absent.
func (ix *ordIndex) remove(v Value, slot int) {
	key := v.OrdKey()
	var update [ordMaxLevel]*ordNode
	n := ix.head
	for l := ix.level - 1; l >= 0; l-- {
		for n.next[l] != nil && n.next[l].key < key {
			n = n.next[l]
		}
		update[l] = n
	}
	node := update[0].next[0]
	if node == nil || node.key != key {
		return
	}
	slots := removeSlotOrdered(node.slots, slot)
	if len(slots) == len(node.slots) {
		return // slot was not indexed under this key
	}
	node.slots = slots
	ix.entries--
	ix.kindCount[v.Kind]--
	if len(node.slots) > 0 {
		return
	}
	for l := 0; l < ix.level; l++ {
		if update[l].next[l] != node {
			break
		}
		update[l].next[l] = node.next[l]
	}
	if node.next[0] != nil {
		node.next[0].prev = node.prev
	}
	for ix.level > 1 && ix.head.next[ix.level-1] == nil {
		ix.level--
	}
	ix.keys--
}

// insertSlot keeps the slot list sorted ascending so that equal-key rows
// stream out in the same order a table scan would visit them.
func insertSlot(slots []int, slot int) []int {
	i := len(slots)
	for i > 0 && slots[i-1] > slot {
		i--
	}
	slots = append(slots, 0)
	copy(slots[i+1:], slots[i:])
	slots[i] = slot
	return slots
}

func removeSlotOrdered(slots []int, slot int) []int {
	for i, s := range slots {
		if s == slot {
			return append(slots[:i], slots[i+1:]...)
		}
	}
	return slots
}

// seekGE returns the first node with key >= key, or nil.
func (ix *ordIndex) seekGE(key string) *ordNode {
	n := ix.head
	for l := ix.level - 1; l >= 0; l-- {
		for n.next[l] != nil && n.next[l].key < key {
			n = n.next[l]
		}
	}
	return n.next[0]
}

func (ix *ordIndex) first() *ordNode { return ix.head.next[0] }

func (ix *ordIndex) last() *ordNode {
	n := ix.head
	for l := ix.level - 1; l >= 0; l-- {
		for n.next[l] != nil {
			n = n.next[l]
		}
	}
	if n == ix.head {
		return nil
	}
	return n
}

func (ix *ordIndex) prevNode(n *ordNode) *ordNode {
	if n.prev == ix.head {
		return nil
	}
	return n.prev
}

// minNonNull / maxNonNull return the index endpoints ignoring NULL entries
// (SQL MIN/MAX semantics), or nil when no non-NULL entry exists.
func (ix *ordIndex) minNonNull() *ordNode {
	n := ix.first()
	if n != nil && n.key == nullOrdKey {
		n = n.next[0]
	}
	return n
}

func (ix *ordIndex) maxNonNull() *ordNode {
	n := ix.last()
	if n != nil && n.key == nullOrdKey {
		return nil
	}
	return n
}

// soleKind reports the single non-NULL kind stored in the index. ok is
// false when entries of different kinds coexist, in which case OrdKey order
// may disagree with SQL's coercing comparison and the planner must fall
// back to a scan. An empty (or all-NULL) index reports (KindNull, true).
func (ix *ordIndex) soleKind() (Kind, bool) { return soleKindOf(ix.kindCount) }

// ordRange is a resolved key interval over an ordIndex.
type ordRange struct {
	lo, hi       string
	hasLo, hasHi bool
	loInc, hiInc bool
	// all walks the whole index including NULL entries (ORDER BY); bounded
	// walks skip NULLs because comparisons never match them.
	all   bool
	empty bool
}

// ascendRange visits nodes in ascending key order within r.
func (ix *ordIndex) ascendRange(r ordRange, fn func(*ordNode) bool) {
	if r.empty {
		return
	}
	var n *ordNode
	switch {
	case r.all:
		n = ix.first()
	case r.hasLo:
		n = ix.seekGE(r.lo)
		if n != nil && !r.loInc && n.key == r.lo {
			n = n.next[0]
		}
	default:
		// Unbounded below: start past the NULL entries, which no
		// comparison predicate can match.
		n = ix.seekGE(nullOrdKey)
		if n != nil && n.key == nullOrdKey {
			n = n.next[0]
		}
	}
	for ; n != nil; n = n.next[0] {
		if r.hasHi {
			if c := strings.Compare(n.key, r.hi); c > 0 || (c == 0 && !r.hiInc) {
				return
			}
		}
		if !fn(n) {
			return
		}
	}
}

// descendRange visits nodes in descending key order within r.
func (ix *ordIndex) descendRange(r ordRange, fn func(*ordNode) bool) {
	if r.empty {
		return
	}
	var n *ordNode
	switch {
	case r.all, !r.hasHi:
		n = ix.last()
	default:
		if g := ix.seekGE(r.hi); g == nil {
			n = ix.last()
		} else if g.key == r.hi && r.hiInc {
			n = g
		} else {
			n = ix.prevNode(g)
		}
	}
	for ; n != nil; n = ix.prevNode(n) {
		if !r.all && n.key == nullOrdKey {
			return // bounded walks exclude NULLs
		}
		if r.hasLo {
			if c := strings.Compare(n.key, r.lo); c < 0 || (c == 0 && !r.loInc) {
				return
			}
		}
		if !fn(n) {
			return
		}
	}
}

// countRange counts entries inside r, stopping at cap (the planner caps the
// walk at the best cost found so far, so planning never outweighs running).
func (ix *ordIndex) countRange(r ordRange, cap int) int {
	total := 0
	ix.ascendRange(r, func(n *ordNode) bool {
		total += len(n.slots)
		return total < cap
	})
	return total
}
