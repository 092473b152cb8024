// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// The generator below is math/rand's rngSource (src/math/rand/rng.go) with
// its seeding rewritten; its draws are the same.

package rng

const (
	lfLen  = 607           // register length
	lfTap  = 273           // lag of the second tap
	lfFeed = lfLen - lfTap // the feed index a fresh register starts at
	lfHead = 16            // draws answered before the register is allocated
	lcgMod = 1<<31 - 1     // the seeding LCG's modulus
	lcgMul = 48271         // the seeding LCG's multiplier
)

// lfSource is math/rand's additive lagged-Fibonacci generator, x(n) =
// x(n−607) + x(n−273) mod 2^64, with the same draws for every seed.
//
// math/rand fills the register from one serial chain of 1 841 steps of the
// LCG x(k+1) = 48271·x(k) mod (2^31−1), giving entry i the chain values
// 21+3i, 22+3i and 23+3i. Since x(k) = x(0)·48271^k, a table of powers
// computes any entry on its own ("jump-ahead"), and lfSource computes each
// entry only on the draw that first reads it. A stream that makes a few
// draws, as most of a world's streams do, seeds a few entries.
//
// Draws 1 to lfHead read only entries they seed themselves, so they need no
// register: their outputs wait in head, and the register is allocated on
// draw lfHead+1 (see spill). Most streams never get there.
type lfSource struct {
	tap, feed int
	// draws counts the draws made while some entry is still unseeded.
	draws int
	// x0 is the reduced seed, the LCG chain's x(0).
	x0 uint64
	// head holds draw d's output at head[d−1] until vec is allocated.
	head [lfHead]int64
	vec  *[lfLen]int64
}

// lcgPow[i] is 48271^(21+3i) mod (2^31−1), the multiplier that takes the
// chain's x(0) to the first of entry i's three values.
var lcgPow = func() (pow [lfLen]uint64) {
	x := uint64(1)
	for k := 1; k <= 21+3*(lfLen-1); k++ {
		x = x * lcgMul % lcgMod
		if k >= 21 && (k-21)%3 == 0 {
			pow[(k-21)/3] = x
		}
	}
	return pow
}()

func newLFSource(seed int64) *lfSource {
	s := new(lfSource)
	s.Seed(seed)
	return s
}

// Seed implements rand.Source. It reduces seed as math/rand does and drops
// the register, which the next lfHead+1 draws allocate afresh.
func (s *lfSource) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.tap, s.feed, s.draws = 0, lfFeed, 0
	s.vec = nil
}

// entry returns register entry i as math/rand's serial seeding sets it.
func (s *lfSource) entry(i int) int64 {
	a := s.x0 * lcgPow[i] % lcgMod
	b := a * lcgMul % lcgMod
	c := b * lcgMul % lcgMod
	return int64(a)<<40 ^ int64(b)<<20 ^ int64(c) ^ cooked[i]
}

// Uint64 implements rand.Source64. Draw d (counting from 1) reads the
// entries at feed = lfFeed−d and tap = lfLen−d, modulo lfLen. Draws 1 to
// lfFeed are the first to read their feed entry, and draws 1 to lfTap the
// first to read their tap entry, so those draws seed it first. Every later
// draw reads an entry that is already seeded. Draws 1 to lfHead compute
// both entries and keep the output in head.
func (s *lfSource) Uint64() uint64 {
	if s.vec == nil {
		if s.draws < lfHead {
			s.draws++
			x := s.entry(lfFeed-s.draws) + s.entry(lfLen-s.draws)
			s.head[s.draws-1] = x
			return uint64(x)
		}
		s.spill()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += lfLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfLen
	}
	if s.draws < lfFeed {
		s.draws++
		s.vec[s.feed] = s.entry(s.feed)
		if s.draws <= lfTap {
			s.vec[s.tap] = s.entry(s.tap)
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// spill allocates the register on draw lfHead+1 and leaves it, and the
// walk, as math/rand's stand after lfHead draws: draw d wrote its output to
// feed entry lfFeed−d and seeded tap entry lfLen−d, which the feed reads
// again on draw lfFeed+d.
func (s *lfSource) spill() {
	s.vec = new([lfLen]int64)
	s.tap, s.feed = lfLen-lfHead, lfFeed-lfHead
	for d := 1; d <= lfHead; d++ {
		s.vec[lfFeed-d] = s.head[d-1]
		s.vec[lfLen-d] = s.entry(lfLen - d)
	}
}

// Int63 implements rand.Source.
func (s *lfSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
