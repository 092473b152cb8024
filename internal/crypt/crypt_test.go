package crypt

import (
	"bytes"
	"testing"
	"testing/quick"

	"alertmanet/internal/rng"
)

func TestDefaultCostModelMatchesPaper(t *testing.T) {
	cm := DefaultCostModel()
	// "A typical symmetric encryption costs several milliseconds while a
	// public key encryption operation costs 2-3 hundred milliseconds."
	if cm.SymEncrypt < 1e-3 || cm.SymEncrypt > 10e-3 {
		t.Fatalf("symmetric cost %v outside several-ms range", cm.SymEncrypt)
	}
	if cm.PubEncrypt < 200e-3 || cm.PubEncrypt > 300e-3 {
		t.Fatalf("public-key cost %v outside 200-300 ms range", cm.PubEncrypt)
	}
	if cm.PubEncrypt < 50*cm.SymEncrypt {
		t.Fatal("public key should cost ~hundreds of times symmetric")
	}
}

func TestZeroCostModel(t *testing.T) {
	if ZeroCostModel() != (CostModel{}) {
		t.Fatal("ZeroCostModel should be all zeros")
	}
}

func TestPseudonymDistinctAcrossNodes(t *testing.T) {
	src := rng.New(1)
	a := NewPseudonym(0xAABB, 10, src)
	b := NewPseudonym(0xAACC, 10, src)
	if a == b {
		t.Fatal("different MACs produced same pseudonym")
	}
}

func TestPseudonymChangesOverTime(t *testing.T) {
	src := rng.New(2)
	a := NewPseudonym(0xAABB, 10, src)
	b := NewPseudonym(0xAABB, 20, src)
	if a == b {
		t.Fatal("pseudonym did not rotate with time")
	}
}

func TestPseudonymUnpredictableWithinSecond(t *testing.T) {
	// Same MAC, same second: the randomized sub-second digits must make
	// reproduced pseudonyms differ (this is the anti-recomputation
	// property of Section 2.2).
	src := rng.New(3)
	a := NewPseudonym(0xAABB, 10.0, src)
	b := NewPseudonym(0xAABB, 10.0, src)
	if a == b {
		t.Fatal("pseudonyms reproducible within the same second")
	}
}

func TestPseudonymStringAndZero(t *testing.T) {
	var z Pseudonym
	if !z.IsZero() {
		t.Fatal("zero pseudonym not IsZero")
	}
	src := rng.New(4)
	p := NewPseudonym(1, 1, src)
	if p.IsZero() {
		t.Fatal("real pseudonym reported zero")
	}
	if len(p.String()) != 12 {
		t.Fatalf("String() = %q, want 12 hex chars", p.String())
	}
}

func TestSymRoundTrip(t *testing.T) {
	src := rng.New(5)
	key := NewSymKey(src)
	msg := []byte("attack at dawn, coordinates follow")
	sealed := SymSeal(key, msg, src)
	if bytes.Contains(sealed, msg[:10]) {
		t.Fatal("ciphertext contains plaintext")
	}
	got, err := SymOpen(key, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip failed: %q", got)
	}
}

func TestSymWrongKey(t *testing.T) {
	src := rng.New(6)
	k1 := NewSymKey(src)
	k2 := NewSymKey(src)
	msg := []byte("secret")
	sealed := SymSeal(k1, msg, src)
	got, err := SymOpen(k2, sealed)
	if err != nil {
		t.Fatal("CTR open never errors on well-formed input")
	}
	if bytes.Equal(got, msg) {
		t.Fatal("wrong key decrypted successfully")
	}
}

func TestSymOpenTruncated(t *testing.T) {
	src := rng.New(7)
	key := NewSymKey(src)
	if _, err := SymOpen(key, []byte{1, 2, 3}); err == nil {
		t.Fatal("truncated input should error")
	}
}

func TestSymSealEmptyPlaintext(t *testing.T) {
	src := rng.New(8)
	key := NewSymKey(src)
	sealed := SymSeal(key, nil, src)
	got, err := SymOpen(key, sealed)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty plaintext round trip: %v %v", got, err)
	}
}

func TestSymNonceFreshness(t *testing.T) {
	src := rng.New(9)
	key := NewSymKey(src)
	msg := []byte("same message")
	a := SymSeal(key, msg, src)
	b := SymSeal(key, msg, src)
	if bytes.Equal(a, b) {
		t.Fatal("two seals of the same message identical (nonce reuse)")
	}
}

func TestFastSuite(t *testing.T) {
	s := NewFastSuite(rng.New(10))
	pub1, priv1 := s.GenerateKeyPair(1)
	_, priv2 := s.GenerateKeyPair(2)
	if pub1.Owner() != 1 || priv2.Owner() != 2 {
		t.Fatal("owner metadata wrong")
	}
	msg := []byte("the Hth partitioned source zone position")
	ct, err := s.EncryptPub(pub1, msg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(ct, msg[:8]) {
		t.Fatal("public-key ciphertext leaks plaintext")
	}
	pt, err := s.DecryptPub(priv1, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Fatal("round trip failed")
	}
	// The wrong private key must not recover the plaintext.
	if pt2, err := s.DecryptPub(priv2, ct); err == nil && bytes.Equal(pt2, msg) {
		t.Fatal("wrong private key decrypted the message")
	}
}

func TestFastSuiteShortCiphertext(t *testing.T) {
	s := NewFastSuite(rng.New(11))
	_, priv := s.GenerateKeyPair(1)
	if _, err := s.DecryptPub(priv, []byte{1}); err == nil {
		t.Fatal("short ciphertext should error")
	}
}

func TestFastSuiteDeterministicKeys(t *testing.T) {
	a := NewFastSuite(rng.New(12))
	b := NewFastSuite(rng.New(12))
	pubA, _ := a.GenerateKeyPair(5)
	_, privB := b.GenerateKeyPair(5)
	// Key material derived from (seed, owner), so suite A's public key
	// encrypts to suite B's private key of the same owner.
	ct, err := a.EncryptPub(pubA, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.DecryptPub(privB, ct); err != nil {
		t.Fatalf("cross-instance decrypt failed: %v", err)
	}
}

func TestBitmapRoundTrip(t *testing.T) {
	src := rng.New(13)
	data := []byte("pkt payload: broadcast to Z_D")
	m := NewBitmap(len(data), 12, src)
	mutated := m.Apply(data)
	if bytes.Equal(mutated, data) && m.OnesCount() > 0 {
		t.Fatal("Apply changed nothing despite set bits")
	}
	restored := m.Apply(mutated)
	if !bytes.Equal(restored, data) {
		t.Fatal("double Apply did not restore data")
	}
}

func TestBitmapAltersPacketOnAir(t *testing.T) {
	// The countermeasure's purpose: two broadcasts of the "same" packet
	// must differ on air so the attacker cannot match them (Section 3.3).
	src := rng.New(14)
	data := bytes.Repeat([]byte{0xAB}, 64)
	m1 := NewBitmap(len(data), 16, src)
	m2 := NewBitmap(len(data), 16, src)
	if bytes.Equal(m1.Apply(data), m2.Apply(data)) {
		t.Fatal("two bitmap applications produced identical packets")
	}
}

func TestBitmapOnesCount(t *testing.T) {
	src := rng.New(15)
	m := NewBitmap(64, 20, src)
	c := m.OnesCount()
	if c == 0 || c > 20 {
		// Collisions can only reduce the count.
		t.Fatalf("OnesCount = %d, want in (0, 20]", c)
	}
}

func TestBitmapEmpty(t *testing.T) {
	src := rng.New(16)
	m := NewBitmap(0, 5, src)
	if len(m) != 0 || m.OnesCount() != 0 {
		t.Fatal("empty bitmap wrong")
	}
	out := m.Apply(nil)
	if len(out) != 0 {
		t.Fatal("empty apply wrong")
	}
}

func TestBitmapLengthMismatchPanics(t *testing.T) {
	src := rng.New(17)
	m := NewBitmap(8, 2, src)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	m.Apply(make([]byte, 9))
}

// Property: symmetric round trip is identity for arbitrary payloads.
func TestQuickSymRoundTrip(t *testing.T) {
	src := rng.New(18)
	key := NewSymKey(src)
	f := func(msg []byte) bool {
		sealed := SymSeal(key, msg, src)
		got, err := SymOpen(key, sealed)
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: FastSuite round trip is identity and cross-owner decryption
// fails, for arbitrary payloads and owners.
func TestQuickFastSuite(t *testing.T) {
	s := NewFastSuite(rng.New(19))
	f := func(msg []byte, ownerRaw uint8) bool {
		owner := int(ownerRaw)
		pub, priv := s.GenerateKeyPair(owner)
		_, other := s.GenerateKeyPair(owner + 1)
		ct, err := s.EncryptPub(pub, msg)
		if err != nil {
			return false
		}
		pt, err := s.DecryptPub(priv, ct)
		if err != nil || !bytes.Equal(pt, msg) {
			return false
		}
		_, err = s.DecryptPub(other, ct)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: bitmap application is an involution.
func TestQuickBitmapInvolution(t *testing.T) {
	src := rng.New(20)
	f := func(data []byte, nBits uint8) bool {
		m := NewBitmap(len(data), int(nBits), src)
		return bytes.Equal(m.Apply(m.Apply(data)), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// OnesCount returns how many bits the mask flips.
func (m Bitmap) OnesCount() int {
	total := 0
	for _, b := range m {
		for ; b != 0; b &= b - 1 {
			total++
		}
	}
	return total
}
