// Package rng provides deterministic, splittable random number streams.
//
// Every stochastic component of the simulator (mobility, medium, protocol
// randomness, workload generation) draws from its own named stream derived
// from a single experiment seed. Two runs with the same seed therefore
// produce identical traces regardless of the order in which components
// consume randomness, and changing one component's consumption does not
// perturb any other component.
package rng

import (
	"hash/fnv"
	"math/rand"
)

// Source is a deterministic random stream. It wraps math/rand.Rand, over a
// copy of math/rand's generator that seeds lazily (see lfSource), and adds
// a few distribution helpers that the simulator needs. Each stream draws
// what rand.New(rand.NewSource(x)) draws for its derived seed x. Source is
// not safe for concurrent use; the discrete-event engine is
// single-threaded, and parallel experiment runs each own their sources.
type Source struct {
	*rand.Rand
	seed int64
	name string
}

// New returns the root stream for an experiment seed.
func New(seed int64) *Source {
	return &Source{Rand: rand.New(newLFSource(mix(seed))), seed: seed, name: ""}
}

// Seed returns the seed this source was derived from.
func (s *Source) Seed() int64 { return s.seed }

// Name returns the derivation path of this stream ("" for the root).
func (s *Source) Name() string { return s.name }

// Split derives an independent child stream identified by name. Derivation
// depends only on (seed, full path name), not on how much randomness the
// parent has consumed.
func (s *Source) Split(name string) *Source {
	full := name
	if s.name != "" {
		full = s.name + "/" + name
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(full))
	child := mix(s.seed ^ int64(h.Sum64()))
	return &Source{Rand: rand.New(newLFSource(child)), seed: s.seed, name: full}
}

// SplitIndex derives a child stream from an integer index, e.g. one stream
// per node.
func (s *Source) SplitIndex(name string, i int) *Source {
	return s.Split(name + "#" + itoa(i))
}

// Uniform returns a float64 uniformly distributed in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Exponential returns an exponentially distributed value with the given
// mean. The mean must be positive.
func (s *Source) Exponential(mean float64) float64 {
	return s.ExpFloat64() * mean
}

// Bernoulli reports true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// mix is SplitMix64's finalizer, used to decorrelate nearby seeds.
func mix(x int64) int64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var buf [24]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		p--
		buf[p] = '-'
	}
	return string(buf[p:])
}
