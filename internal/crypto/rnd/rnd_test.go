package rnd

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func mustIV(t *testing.T) []byte {
	t.Helper()
	iv, err := NewIV()
	if err != nil {
		t.Fatal(err)
	}
	return iv
}

func TestBytesRoundTrip(t *testing.T) {
	key := []byte("key")
	iv := mustIV(t)
	f := func(pt []byte) bool {
		ct, err := Bytes(key, iv, pt)
		if err != nil {
			return false
		}
		got, err := DecryptBytes(key, iv, ct)
		if err != nil {
			return false
		}
		return bytes.Equal(got, pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBytesProbabilistic(t *testing.T) {
	// Same plaintext under two fresh IVs must produce different
	// ciphertexts — the core RND security property.
	key := []byte("key")
	pt := []byte("secret value")
	ct1, err := Bytes(key, mustIV(t), pt)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := Bytes(key, mustIV(t), pt)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct1, ct2) {
		t.Fatal("equal ciphertexts under fresh IVs")
	}
}

func TestBytesEmptyPlaintext(t *testing.T) {
	key, iv := []byte("key"), mustIV(t)
	ct, err := Bytes(key, iv, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecryptBytes(key, iv, ct)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %q, want empty", got)
	}
}

func TestBytesBadIV(t *testing.T) {
	if _, err := Bytes([]byte("k"), []byte("short"), []byte("x")); err == nil {
		t.Fatal("want error for short IV")
	}
	if _, err := DecryptBytes([]byte("k"), []byte("short"), make([]byte, 16)); err == nil {
		t.Fatal("want error for short IV on decrypt")
	}
}

func TestDecryptBytesBadLength(t *testing.T) {
	iv := mustIV(t)
	if _, err := DecryptBytes([]byte("k"), iv, []byte("not-a-block")); err == nil {
		t.Fatal("want error for non-block-aligned ciphertext")
	}
	if _, err := DecryptBytes([]byte("k"), iv, nil); err == nil {
		t.Fatal("want error for empty ciphertext")
	}
}

func TestDecryptBytesWrongKey(t *testing.T) {
	iv := mustIV(t)
	ct, err := Bytes([]byte("k1"), iv, []byte("hello world, longer than a block...."))
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecryptBytes([]byte("k2"), iv, ct)
	if err == nil && bytes.Equal(got, []byte("hello world, longer than a block....")) {
		t.Fatal("wrong key decrypted to the plaintext")
	}
}

func TestUint64RoundTrip(t *testing.T) {
	key := []byte("key")
	iv := mustIV(t)
	f := func(v uint64) bool {
		ct, err := Uint64(key, iv, v)
		if err != nil {
			return false
		}
		got, err := DecryptUint64(key, iv, ct)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64Probabilistic(t *testing.T) {
	key := []byte("key")
	ct1, err := Uint64(key, mustIV(t), 12345)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := Uint64(key, mustIV(t), 12345)
	if err != nil {
		t.Fatal(err)
	}
	if ct1 == ct2 {
		t.Fatal("equal integer ciphertexts under fresh IVs")
	}
}

func TestUint64CiphertextIs64Bits(t *testing.T) {
	// The whole point of the 64-bit PRP (Blowfish in the paper) is that
	// integer RND ciphertexts stay 8 bytes; the API returning uint64
	// makes that structural, so just confirm the IV requirement.
	if _, err := Uint64([]byte("k"), []byte{1, 2}, 7); err == nil {
		t.Fatal("want error for short IV")
	}
}

func TestNewIVFresh(t *testing.T) {
	a, err := NewIV()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewIV()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("two fresh IVs identical")
	}
	if len(a) != IVSize {
		t.Fatalf("IV length %d, want %d", len(a), IVSize)
	}
}

// TestCipherMatchesFunctions pins the RND ciphertexts for a fixed key and
// IV (values recorded from the per-call functions before Cipher existed)
// and requires the package functions and a Cipher built once for the key
// to produce them byte for byte, and to decrypt them back.
func TestCipherMatchesFunctions(t *testing.T) {
	key := []byte("column key: t.c/Eq/RND")
	iv := []byte("0123456789abcdef")
	c := New(key)
	for _, kat := range []struct{ pt, ct string }{
		{"", "4dee11cf9e760ae7fd2d155cea968b4b"},
		{"x", "d77e6758bdc6469c2b475d9da167458e"},
		{"sixteen bytes!!!", "21deab90b13a0aa05a5e56bb9df04ab39cb7bb65af575c61135e4587a6a1d10a"},
		{"a longer plaintext spanning blocks", "7d452c29bcacdc49aa55a08602cdfb23bd7e906e2455f82bb5a688ad9d55d2ea54c3ab72ba24c53ffaa625d972a26256"},
	} {
		fn, err := Bytes(key, iv, []byte(kat.pt))
		if err != nil {
			t.Fatal(err)
		}
		cached, err := c.Bytes(iv, []byte(kat.pt))
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(fn); got != kat.ct {
			t.Fatalf("Bytes(%q) = %s, want %s", kat.pt, got, kat.ct)
		}
		if !bytes.Equal(cached, fn) {
			t.Fatalf("Cipher.Bytes(%q) = %x, Bytes = %x", kat.pt, cached, fn)
		}
		for _, dec := range []func([]byte) ([]byte, error){
			func(ct []byte) ([]byte, error) { return DecryptBytes(key, iv, ct) },
			func(ct []byte) ([]byte, error) { return c.DecryptBytes(iv, ct) },
		} {
			if pt, err := dec(fn); err != nil || string(pt) != kat.pt {
				t.Fatalf("decrypting %q: %q, %v", kat.pt, pt, err)
			}
		}
	}
	for _, kat := range []struct{ pt, ct uint64 }{
		{0, 0xe430102f7a30c417},
		{42, 0x5584e192b9c59a6d},
		{1 << 63, 0xc8af9090ddb93e7d},
		{^uint64(0), 0x833b608cb8bc7486},
	} {
		fn, err := Uint64(key, iv, kat.pt)
		if err != nil {
			t.Fatal(err)
		}
		cached, err := c.Uint64(iv, kat.pt)
		if err != nil {
			t.Fatal(err)
		}
		if fn != kat.ct || cached != kat.ct {
			t.Fatalf("Uint64(%d) = %#x, Cipher.Uint64 = %#x, want %#x", kat.pt, fn, cached, kat.ct)
		}
		a, errA := DecryptUint64(key, iv, kat.ct)
		b, errB := c.DecryptUint64(iv, kat.ct)
		if errA != nil || errB != nil || a != kat.pt || b != kat.pt {
			t.Fatalf("decrypting %#x: %d (%v), %d (%v), want %d", kat.ct, a, errA, b, errB, kat.pt)
		}
	}
	if _, err := c.Bytes([]byte("short"), nil); err == nil {
		t.Fatal("Cipher.Bytes accepted a short IV")
	}
	if _, err := c.DecryptBytes(iv, []byte("not-a-block")); err == nil {
		t.Fatal("Cipher.DecryptBytes accepted a partial block")
	}
}
