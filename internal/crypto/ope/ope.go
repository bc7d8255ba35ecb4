// Package ope implements the Boldyreva et al. order-preserving encryption
// scheme used by CryptDB's OPE layer (§3.1): if x < y then Enc(x) < Enc(y),
// so the DBMS server can evaluate range predicates, ORDER BY, MIN, MAX and
// SORT directly on ciphertexts. The scheme is equivalent to a random
// order-preserving mapping from the plaintext domain into a larger
// ciphertext range.
//
// The construction recursively bisects the ciphertext range: at each node a
// hypergeometric draw (package hgd) decides how many of the domain points in
// the current interval map below the range midpoint, and deterministic
// coins (keyed AES-CTR) make the whole mapping a function of the key alone.
//
// The paper reports that a direct implementation cost 25 ms per 32-bit
// encryption, reduced to 7 ms by caching search-tree state across calls
// ("AVL binary search trees for batch encryption", §3.1). This package
// implements the analogous optimization: an internal cache memoizes the
// hypergeometric split at every visited (domain, range) node, so repeated
// encryptions share all common path prefixes. Disable it with DisableCache
// for the ablation benchmark.
package ope

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/crypto/hgd"
	"repro/internal/crypto/prf"
)

// Cipher order-preservingly encrypts integers from [0, 2^DomainBits) into
// [0, 2^RangeBits). It is safe for concurrent use.
type Cipher struct {
	key        []byte
	domainBits uint
	rangeBits  uint

	mu        sync.Mutex
	nodeCache map[nodeKey]uint64 // range interval -> domain points mapped below its midpoint
	leafCache map[uint64]uint64  // plaintext -> ciphertext
	inflight  map[uint64]*inflightEnc
	useCache  bool
}

// inflightEnc coordinates concurrent Encrypt calls for the same plaintext:
// the first caller computes, later callers wait for its result instead of
// redundantly recomputing the full HGD walk.
type inflightEnc struct {
	done chan struct{}
	ct   uint64
}

// nodeKey names a node of the search tree by its range interval alone.
// The range bisection does not depend on the key or the plaintext (a
// node's midpoint is a function of rlo and rhi), so each range interval
// occurs at most once in the tree, and its domain interval is fixed by the
// splits above it. Keying by the range half of the node halves the cache's
// key bytes.
type nodeKey struct {
	rlo, rhi uint64
}

// DefaultDomainBits and DefaultRangeBits match the paper's headline numbers:
// 32-bit plaintexts, 64-bit ciphertexts.
const (
	DefaultDomainBits = 32
	DefaultRangeBits  = 64
)

// New builds a Cipher over the default 32-bit domain / 64-bit range.
func New(key []byte) *Cipher {
	c, err := NewWithBits(key, DefaultDomainBits, DefaultRangeBits)
	if err != nil {
		panic("ope: " + err.Error()) // impossible with default parameters
	}
	return c
}

// NewWithBits builds a Cipher with explicit domain and range sizes.
// rangeBits must exceed domainBits (the range must be strictly larger than
// the domain for the hypergeometric recursion to be well defined) and at
// most 64.
func NewWithBits(key []byte, domainBits, rangeBits uint) (*Cipher, error) {
	if domainBits == 0 || domainBits >= rangeBits || rangeBits > 64 {
		return nil, fmt.Errorf("ope: invalid sizes: domain 2^%d, range 2^%d", domainBits, rangeBits)
	}
	return &Cipher{
		key:        prf.Sum(key, []byte("ope")),
		domainBits: domainBits,
		rangeBits:  rangeBits,
		nodeCache:  make(map[nodeKey]uint64),
		leafCache:  make(map[uint64]uint64),
		inflight:   make(map[uint64]*inflightEnc),
		useCache:   true,
	}, nil
}

// DisableCache turns off node memoization (for the ablation benchmark that
// reproduces the paper's 25 ms -> 7 ms improvement).
func (c *Cipher) DisableCache() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.useCache = false
	c.nodeCache = make(map[nodeKey]uint64)
	c.leafCache = make(map[uint64]uint64)
	c.inflight = make(map[uint64]*inflightEnc)
}

// domainMax returns the largest encryptable plaintext.
func (c *Cipher) domainMax() uint64 {
	if c.domainBits == 64 {
		return ^uint64(0)
	}
	return 1<<c.domainBits - 1
}

func (c *Cipher) rangeMax() uint64 {
	if c.rangeBits == 64 {
		return ^uint64(0)
	}
	return 1<<c.rangeBits - 1
}

// Encrypt maps m to its order-preserving ciphertext.
//
// Concurrent calls for the same plaintext are coalesced: the first caller
// performs the HGD walk while the rest wait on its result, so bulk loads
// fanned across goroutines never duplicate tree work.
func (c *Cipher) Encrypt(m uint64) (uint64, error) {
	if m > c.domainMax() {
		return 0, fmt.Errorf("ope: plaintext %d outside domain [0, 2^%d)", m, c.domainBits)
	}
	c.mu.Lock()
	if !c.useCache {
		c.mu.Unlock()
		return c.walk(m, 0, c.domainMax(), 0, c.rangeMax(), nil), nil
	}
	if ct, ok := c.leafCache[m]; ok {
		c.mu.Unlock()
		return ct, nil
	}
	if fl, ok := c.inflight[m]; ok {
		c.mu.Unlock()
		<-fl.done
		return fl.ct, nil
	}
	fl := &inflightEnc{done: make(chan struct{})}
	c.inflight[m] = fl
	c.mu.Unlock()

	ct := c.walk(m, 0, c.domainMax(), 0, c.rangeMax(), nil)

	c.mu.Lock()
	// DisableCache may have swapped the maps mid-walk; these writes then
	// land on dead maps, which is harmless.
	c.leafCache[m] = ct
	delete(c.inflight, m)
	c.mu.Unlock()
	fl.ct = ct
	close(fl.done)
	return ct, nil
}

// EncryptBatch encrypts many plaintexts at once, visiting them in sorted
// order so consecutive values share the longest possible tree-path
// prefixes in the node cache — the paper's "AVL binary search trees for
// batch encryption (e.g., database loads)" optimization (§3.1). Results
// are returned in the order of the input slice.
func (c *Cipher) EncryptBatch(ms []uint64) ([]uint64, error) {
	idx := make([]int, len(ms))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ms[idx[a]] < ms[idx[b]] })
	out := make([]uint64, len(ms))
	for _, i := range idx {
		ct, err := c.Encrypt(ms[i])
		if err != nil {
			return nil, err
		}
		out[i] = ct
	}
	return out, nil
}

// DecryptBatch decrypts many ciphertexts at once, visiting them in sorted
// order so consecutive values share the longest possible tree-path prefixes
// in the node cache — the decryption counterpart of EncryptBatch, for bulk
// consumers (exports, re-encryption sweeps) that hold whole ciphertext
// columns. The proxy's regular result decryption rarely touches OPE (Eq
// reads go through DET; only MIN/MAX results decrypt Ord, one value per
// group), so it decrypts per row instead. Results are returned in the
// order of the input slice; any invalid ciphertext fails the whole batch.
func (c *Cipher) DecryptBatch(cts []uint64) ([]uint64, error) {
	idx := make([]int, len(cts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return cts[idx[a]] < cts[idx[b]] })
	out := make([]uint64, len(cts))
	for _, i := range idx {
		m, err := c.Decrypt(cts[i])
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// Decrypt inverts Encrypt. It returns an error if ct is not a ciphertext
// produced under this key.
func (c *Cipher) Decrypt(ct uint64) (uint64, error) {
	if ct > c.rangeMax() {
		return 0, fmt.Errorf("ope: ciphertext %d outside range [0, 2^%d)", ct, c.rangeBits)
	}
	var m uint64
	found := c.walkDecrypt(ct, 0, c.domainMax(), 0, c.rangeMax(), &m)
	if !found {
		return 0, errors.New("ope: not a valid ciphertext under this key")
	}
	return m, nil
}

// walk recursively narrows (domain, range) until the domain is a single
// point, then places m pseudo-randomly inside the remaining range.
func (c *Cipher) walk(m, dlo, dhi, rlo, rhi uint64, _ []byte) uint64 {
	for {
		if dlo == dhi {
			return c.leafValue(dlo, rlo, rhi)
		}
		drawn, y := c.split(dlo, dhi, rlo, rhi)
		// drawn = number of domain points mapped into [rlo, y]; those
		// are exactly the plaintexts dlo .. dlo+drawn-1.
		if m-dlo < drawn {
			dhi, rhi = dlo+drawn-1, y
		} else {
			dlo, rlo = dlo+drawn, y+1
		}
	}
}

func (c *Cipher) walkDecrypt(ct, dlo, dhi, rlo, rhi uint64, out *uint64) bool {
	for {
		if dlo == dhi {
			if c.leafValue(dlo, rlo, rhi) == ct {
				*out = dlo
				return true
			}
			return false
		}
		drawn, y := c.split(dlo, dhi, rlo, rhi)
		if ct <= y {
			// No domain point maps below the midpoint, yet ct lies
			// there: ct is not a valid ciphertext.
			if drawn == 0 {
				return false
			}
			dhi, rhi = dlo+drawn-1, y
		} else {
			// All domain points map below the midpoint.
			if dlo+drawn > dhi {
				return false
			}
			dlo, rlo = dlo+drawn, y+1
		}
	}
}

// split computes, for the interval pair (D=[dlo,dhi], R=[rlo,rhi]), the
// range midpoint y and the number of domain points mapped at or below y.
// All size arithmetic avoids overflow even when R spans the full 64-bit
// space (where N = 2^64 is not representable).
func (c *Cipher) split(dlo, dhi, rlo, rhi uint64) (drawn, y uint64) {
	width := rhi - rlo // N-1; never overflows
	var half uint64    // ceil(N/2)
	if width == ^uint64(0) {
		half = 1 << 63
	} else {
		n := width + 1
		half = n/2 + n%2
	}
	y = rlo + half - 1

	key := nodeKey{rlo, rhi}
	c.mu.Lock()
	useCache := c.useCache // snapshot: DisableCache may race with a walk
	if useCache {
		if cached, ok := c.nodeCache[key]; ok {
			c.mu.Unlock()
			return cached, y
		}
	}
	c.mu.Unlock()

	m := dhi - dlo + 1     // domain size (white balls); dhi > dlo here
	black := width - m + 1 // N - m, computed without forming N
	coins := prf.NewStream(c.key, []byte("node"), encode4(dlo, dhi, rlo, rhi))
	drawn = hgd.Sample(half, m, black, coins)

	if useCache {
		c.mu.Lock()
		c.nodeCache[key] = drawn
		c.mu.Unlock()
	}
	return drawn, y
}

// leafValue deterministically places the single remaining domain point d
// uniformly inside [rlo, rhi].
func (c *Cipher) leafValue(d, rlo, rhi uint64) uint64 {
	coins := prf.NewStream(c.key, []byte("leaf"), encode4(d, rlo, rhi, 0))
	if rhi-rlo == ^uint64(0) {
		return coins.Uint64()
	}
	return rlo + coins.Uint64n(rhi-rlo+1)
}

func encode4(a, b, cc, d uint64) []byte {
	var buf [32]byte
	binary.BigEndian.PutUint64(buf[0:], a)
	binary.BigEndian.PutUint64(buf[8:], b)
	binary.BigEndian.PutUint64(buf[16:], cc)
	binary.BigEndian.PutUint64(buf[24:], d)
	return buf[:]
}
