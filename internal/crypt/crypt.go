// Package crypt provides the cryptographic substrate ALERT relies on:
// dynamic pseudonyms (SHA-1 over MAC address and a randomized timestamp,
// Section 2.2), symmetric and public-key encryption for packet fields
// (Section 2.5), the bit-flip Bitmap used against intersection attacks
// (Section 3.3), and a latency cost model.
//
// Two layers are deliberately separated:
//
//   - Functional encryption. Packets really are encrypted and decrypted so
//     tests can verify confidentiality-relevant behaviour (a forwarder
//     cannot read the source zone, covering packets are indistinguishable,
//     the bitmap restores flipped bits). Symmetric operations use stdlib
//     AES-CTR. Public-key operations use FastSuite, a deterministic keyed
//     box standing in for RSA: it keeps the one property the protocols
//     rely on (only a key's owner opens what was sealed to it) and costs
//     microseconds, where generating an RSA key per node would dominate a
//     run's wall time.
//
//   - Cost accounting. The *simulated* latency of each operation comes from
//     CostModel, calibrated to the paper's measurements on a 1.8 GHz core:
//     symmetric ops cost a few milliseconds, public-key ops 200-300 ms.
//     This is what makes the latency comparison (Fig. 14) independent of
//     the host CPU: ALARM/AO2P pay a public-key charge per hop while ALERT
//     pays symmetric charges plus one public-key operation per session.
package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"alertmanet/internal/rng"
)

// CostModel gives the simulated execution time, in seconds, of each
// cryptographic operation.
type CostModel struct {
	SymEncrypt float64 // symmetric encryption of one packet
	SymDecrypt float64
	PubEncrypt float64 // public-key encryption of one packet/field
	PubDecrypt float64
}

// DefaultCostModel returns the paper's measured costs (Section 5.2): AES in
// single-digit milliseconds, RSA in the low hundreds of milliseconds on a
// 1.8 GHz processor.
func DefaultCostModel() CostModel {
	return CostModel{
		SymEncrypt: 3e-3,
		SymDecrypt: 3e-3,
		PubEncrypt: 250e-3,
		PubDecrypt: 250e-3,
	}
}

// ZeroCostModel charges nothing; for isolating pure routing behaviour.
func ZeroCostModel() CostModel { return CostModel{} }

// Pseudonym is a node's temporary identifier: the SHA-1 hash of its MAC
// address and a (randomized) timestamp.
type Pseudonym [20]byte

// String renders a short hex prefix for logs.
func (p Pseudonym) String() string { return fmt.Sprintf("%x", p[:6]) }

// IsZero reports whether the pseudonym is unset.
func (p Pseudonym) IsZero() bool { return p == Pseudonym{} }

// NewPseudonym computes the pseudonym for a MAC address at time t. Per
// Section 2.2 the timestamp is kept at one-second precision and the
// sub-second digits are randomized so an eavesdropper who knows the MAC and
// the coarse time still cannot reproduce the hash: it would have to try on
// the order of 1e5 sub-second values per packet per node.
func NewPseudonym(mac uint64, t float64, src *rng.Source) Pseudonym {
	sec := math.Floor(t)
	// Randomize within 1/10th of the second, at nanosecond granularity.
	frac := src.Uniform(0, 0.1)
	ts := sec + frac
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], mac)
	binary.BigEndian.PutUint64(buf[8:], math.Float64bits(ts))
	return sha1.Sum(buf[:])
}

// SymKey is a 128-bit AES key (the session key K_s a source embeds for the
// destination, Section 2.5).
type SymKey [16]byte

// NewSymKey draws a fresh symmetric key from the given stream.
func NewSymKey(src *rng.Source) SymKey {
	var k SymKey
	for i := 0; i < len(k); i += 8 {
		binary.BigEndian.PutUint64(k[i:], src.Uint64())
	}
	return k
}

// SymSeal encrypts plaintext with AES-CTR under key, using a fresh random
// nonce drawn from src. Output layout: nonce(16) || ciphertext.
func SymSeal(key SymKey, plaintext []byte, src *rng.Source) []byte {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) //lint:allowpanic aes.NewCipher cannot fail on a fixed 16-byte key
	}
	out := make([]byte, aes.BlockSize+len(plaintext))
	iv := out[:aes.BlockSize]
	for i := 0; i < aes.BlockSize; i += 8 {
		binary.BigEndian.PutUint64(iv[i:], src.Uint64())
	}
	cipher.NewCTR(block, iv).XORKeyStream(out[aes.BlockSize:], plaintext)
	return out
}

// SymOpen decrypts a SymSeal envelope. It fails on truncated input. Note
// CTR mode provides confidentiality, not integrity — adequate here, where
// the threat model is eavesdropping and traffic analysis (Section 2.1).
func SymOpen(key SymKey, sealed []byte) ([]byte, error) {
	if len(sealed) < aes.BlockSize {
		return nil, errors.New("crypt: sealed data shorter than nonce")
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) //lint:allowpanic aes.NewCipher cannot fail on a fixed 16-byte key
	}
	out := make([]byte, len(sealed)-aes.BlockSize)
	cipher.NewCTR(block, sealed[:aes.BlockSize]).XORKeyStream(out, sealed[aes.BlockSize:])
	return out, nil
}

// PubKey is an opaque public key handle issued by a FastSuite; nil means
// no key.
type PubKey interface {
	// Owner returns the node id the key was generated for.
	Owner() int
}

// PrivKey is an opaque private key handle issued by a FastSuite.
type PrivKey interface {
	Owner() int
}

// ---- FastSuite -------------------------------------------------------------

// FastSuite is the deterministic stand-in for public-key encryption that
// the simulator and the live daemons run on: each key pair shares a secret
// 128-bit box key derived from the suite seed and the owner id; EncryptPub
// seals with AES-CTR under the box key and prepends the owner id;
// DecryptPub refuses mismatched owners. It preserves exactly the property
// the protocols rely on — only the intended holder can read the field —
// while costing microseconds. Simulated latency is charged separately via
// CostModel.
type FastSuite struct {
	src *rng.Source
}

// NewFastSuite creates a FastSuite deriving keys from the given stream.
func NewFastSuite(src *rng.Source) *FastSuite {
	return &FastSuite{src: src.Split("fastsuite")}
}

type fastKey struct {
	owner int
	box   SymKey
}

func (k fastKey) Owner() int { return k.owner }

// GenerateKeyPair creates the key pair for a node.
func (s *FastSuite) GenerateKeyPair(owner int) (PubKey, PrivKey) {
	k := fastKey{owner: owner, box: NewSymKey(s.src.SplitIndex("key", owner))}
	return k, k
}

// EncryptPub encrypts plaintext to the holder of pub.
func (s *FastSuite) EncryptPub(pub PubKey, plaintext []byte) ([]byte, error) {
	k, ok := pub.(fastKey)
	if !ok {
		return nil, errors.New("crypt: foreign public key")
	}
	sealed := SymSeal(k.box, plaintext, s.src)
	out := make([]byte, 8+len(sealed))
	binary.BigEndian.PutUint64(out, uint64(k.owner))
	copy(out[8:], sealed)
	return out, nil
}

// DecryptPub decrypts a ciphertext with priv; it returns an error if the
// ciphertext was not produced for this key.
func (s *FastSuite) DecryptPub(priv PrivKey, ciphertext []byte) ([]byte, error) {
	k, ok := priv.(fastKey)
	if !ok {
		return nil, errors.New("crypt: foreign private key")
	}
	if len(ciphertext) < 8 {
		return nil, errors.New("crypt: short ciphertext")
	}
	owner := int(binary.BigEndian.Uint64(ciphertext))
	if owner != k.owner {
		return nil, fmt.Errorf("crypt: ciphertext for node %d, key for node %d", owner, k.owner)
	}
	return SymOpen(k.box, ciphertext[8:])
}

// ---- Bitmap (intersection-attack countermeasure) ---------------------------

// Bitmap records which bits the last forwarder flipped in a packet so the
// destination can restore the original data (Section 3.3). It is simply an
// XOR mask the same length as the payload; the mask itself travels encrypted
// under the destination's public key.
type Bitmap []byte

// NewBitmap creates a mask for a payload of n bytes with approximately
// nBits random bits set.
func NewBitmap(n, nBits int, src *rng.Source) Bitmap {
	m := make(Bitmap, n)
	if n == 0 {
		return m
	}
	for i := 0; i < nBits; i++ {
		bit := src.Intn(n * 8)
		m[bit/8] ^= 1 << (bit % 8)
	}
	return m
}

// Apply XORs the mask into data (flipping the recorded bits); applying the
// same mask twice restores the original. data and mask must be equal length.
func (m Bitmap) Apply(data []byte) []byte {
	if len(data) != len(m) {
		//lint:allowpanic documented precondition: Apply requires equal lengths, violation is a caller bug caught in tests
		panic("crypt: bitmap/data length mismatch")
	}
	out := make([]byte, len(data))
	for i := range data {
		out[i] = data[i] ^ m[i]
	}
	return out
}
