// Package rng provides deterministic, splittable random number sources.
//
// Every stochastic component in the repository (initial drone placement,
// GPS noise, lossy communication, random fuzzers) draws from a Source
// derived from an explicit seed, so a mission is a pure function of its
// configuration. Derive creates statistically independent child sources
// from a parent seed and a label, which keeps results stable when new
// consumers of randomness are added: adding a consumer with a new label
// does not perturb the streams of existing labels.
package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
)

// Source is a deterministic random source. It wraps math/rand.Rand so
// callers get the full distribution toolbox, but construction is only
// possible through New/Derive, which forces explicit seeding.
type Source struct {
	*rand.Rand
	seed uint64
}

// New returns a Source seeded with the given seed.
func New(seed uint64) *Source {
	return &Source{
		Rand: rand.New(rand.NewSource(int64(seed))), //nolint:gosec // determinism is the point
		seed: seed,
	}
}

// Seed returns the seed this source was created with.
func (s *Source) Seed() uint64 { return s.seed }

// Derive returns a new Source whose seed is a hash of the parent seed
// and the label. Distinct labels yield independent streams; the same
// (seed, label) pair always yields the same stream.
func Derive(seed uint64, label string) *Source {
	return New(deriveSeed(seed, label))
}

// DeriveN is Derive with an integer discriminator appended to the
// label, convenient for per-drone or per-trial streams.
func DeriveN(seed uint64, label string, n int) *Source {
	return New(deriveSeed(seed, label, uint64(n)))
}

// deriveSeed is the FNV-1a hash of seed, label and then each of extra,
// with every integer written as 8 little-endian bytes.
func deriveSeed(seed uint64, label string, extra ...uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], seed)
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(label))
	for _, x := range extra {
		binary.LittleEndian.PutUint64(buf[:], x)
		_, _ = h.Write(buf[:])
	}
	return h.Sum64()
}

// Uniform returns a uniformly distributed float64 in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + s.Float64()*(hi-lo)
}

// Gaussian returns a normally distributed float64 with the given mean
// and standard deviation.
func (s *Source) Gaussian(mean, stddev float64) float64 {
	return mean + s.NormFloat64()*stddev
}

// Bool returns true with probability p (clamped to [0,1]).
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}
