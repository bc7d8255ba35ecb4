// Package rnd implements CryptDB's RND encryption layer (§3.1): an IND-CPA
// probabilistic scheme under which no computation is possible. Byte strings
// use AES-256-CBC with a random IV; 64-bit integers use the 64-bit-block PRP
// from package feistel in single-block CBC mode (the paper uses Blowfish for
// the same reason: to keep integer ciphertexts 64 bits).
//
// The IV is stored alongside the ciphertext in a separate column at the DBMS
// (the C*-IV columns of Figure 3) and is shared by the RND layers of the Eq
// and Ord onions of a data item.
package rnd

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/crypto/feistel"
	"repro/internal/crypto/prf"
)

// IVSize is the byte length of the per-row initialization vector.
const IVSize = aes.BlockSize

// NewIV draws a fresh random IV.
func NewIV() ([]byte, error) {
	iv := make([]byte, IVSize)
	if _, err := rand.Read(iv); err != nil {
		return nil, fmt.Errorf("rnd: generating IV: %w", err)
	}
	return iv, nil
}

// Cipher holds one key's RND schedules: the AES-256 block for byte strings
// and the 64-bit PRP for integers. Building them (two PRF evaluations and
// the AES key expansion) costs more than encrypting one value, so callers
// that encrypt many values under one key build a Cipher once. It is safe
// for concurrent use.
type Cipher struct {
	block cipher.Block
	prp   *feistel.Cipher
}

// New builds the RND schedules for key.
func New(key []byte) *Cipher {
	return &Cipher{block: bytesBlock(key), prp: intPRP(key)}
}

// bytesBlock derives the AES-256 block for key. prf.Sum yields 32 bytes,
// a valid AES-256 key, so NewCipher cannot fail.
func bytesBlock(key []byte) cipher.Block {
	block, err := aes.NewCipher(prf.Sum(key, []byte("rnd-aes")))
	if err != nil {
		panic("rnd: " + err.Error())
	}
	return block
}

// intPRP derives the 64-bit PRP for key.
func intPRP(key []byte) *feistel.Cipher { return feistel.New(prf.Sum(key, []byte("rnd-int"))) }

// Bytes encrypts arbitrary data under key with the given IV using
// AES-256-CBC with PKCS#7-style padding. The same (key, iv, pt) triple
// always yields the same ciphertext; probabilistic security comes from
// drawing a fresh IV per row.
func Bytes(key, iv, pt []byte) ([]byte, error) {
	if err := checkIV(iv); err != nil {
		return nil, err
	}
	return encryptBytes(bytesBlock(key), iv, pt), nil
}

// DecryptBytes inverts Bytes.
func DecryptBytes(key, iv, ct []byte) ([]byte, error) {
	if err := checkBytesCT(iv, ct); err != nil {
		return nil, err
	}
	return decryptBytes(bytesBlock(key), iv, ct)
}

// Uint64 encrypts a 64-bit integer as a single 64-bit block: one round of
// CBC with the 64-bit PRP, ct = E(pt XOR iv64). iv64 is derived from the
// row IV so that integer and string columns can share the stored IV.
func Uint64(key, iv []byte, pt uint64) (uint64, error) {
	if err := checkIV(iv); err != nil {
		return 0, err
	}
	return intPRP(key).Encrypt(pt ^ binary.BigEndian.Uint64(iv[:8])), nil
}

// DecryptUint64 inverts Uint64.
func DecryptUint64(key, iv []byte, ct uint64) (uint64, error) {
	if err := checkIV(iv); err != nil {
		return 0, err
	}
	return intPRP(key).Decrypt(ct) ^ binary.BigEndian.Uint64(iv[:8]), nil
}

// Bytes is the package-level Bytes under c's key.
func (c *Cipher) Bytes(iv, pt []byte) ([]byte, error) {
	if err := checkIV(iv); err != nil {
		return nil, err
	}
	return encryptBytes(c.block, iv, pt), nil
}

// DecryptBytes is the package-level DecryptBytes under c's key.
func (c *Cipher) DecryptBytes(iv, ct []byte) ([]byte, error) {
	if err := checkBytesCT(iv, ct); err != nil {
		return nil, err
	}
	return decryptBytes(c.block, iv, ct)
}

// Uint64 is the package-level Uint64 under c's key.
func (c *Cipher) Uint64(iv []byte, pt uint64) (uint64, error) {
	if err := checkIV(iv); err != nil {
		return 0, err
	}
	return c.prp.Encrypt(pt ^ binary.BigEndian.Uint64(iv[:8])), nil
}

// DecryptUint64 is the package-level DecryptUint64 under c's key.
func (c *Cipher) DecryptUint64(iv []byte, ct uint64) (uint64, error) {
	if err := checkIV(iv); err != nil {
		return 0, err
	}
	return c.prp.Decrypt(ct) ^ binary.BigEndian.Uint64(iv[:8]), nil
}

func checkIV(iv []byte) error {
	if len(iv) != IVSize {
		return fmt.Errorf("rnd: IV must be %d bytes, got %d", IVSize, len(iv))
	}
	return nil
}

func checkBytesCT(iv, ct []byte) error {
	if err := checkIV(iv); err != nil {
		return err
	}
	if len(ct) == 0 || len(ct)%aes.BlockSize != 0 {
		return fmt.Errorf("rnd: ciphertext length %d not a positive multiple of %d", len(ct), aes.BlockSize)
	}
	return nil
}

func encryptBytes(block cipher.Block, iv, pt []byte) []byte {
	padded := pad(pt, aes.BlockSize)
	ct := make([]byte, len(padded))
	cipher.NewCBCEncrypter(block, iv).CryptBlocks(ct, padded)
	return ct
}

func decryptBytes(block cipher.Block, iv, ct []byte) ([]byte, error) {
	pt := make([]byte, len(ct))
	cipher.NewCBCDecrypter(block, iv).CryptBlocks(pt, ct)
	return unpad(pt, aes.BlockSize)
}

func pad(pt []byte, size int) []byte {
	n := size - len(pt)%size
	return append(append([]byte{}, pt...), bytes.Repeat([]byte{byte(n)}, n)...)
}

func unpad(pt []byte, size int) ([]byte, error) {
	if len(pt) == 0 {
		return nil, errors.New("rnd: empty plaintext after decryption")
	}
	n := int(pt[len(pt)-1])
	if n == 0 || n > size || n > len(pt) {
		return nil, errors.New("rnd: bad padding")
	}
	for _, b := range pt[len(pt)-n:] {
		if int(b) != n {
			return nil, errors.New("rnd: bad padding")
		}
	}
	return pt[:len(pt)-n], nil
}
