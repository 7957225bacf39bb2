// Package seeded holds the repository's two deterministic primitives:
// the splitmix64 mixer and stream, and FNV-1a 64. Chaos and netchaos
// plans, load schedules, Retry-After jitter, rendezvous placement and
// the branch predictor's function hash all derive from these, and
// every seeded stream built on them is frozen by golden-vector tests
// in its own package. Changing either function changes every replayed
// seed in the repository.
package seeded

// Gamma is the splitmix64 increment (the 64-bit golden ratio). Callers
// also use it as a multiplier to spread a user seed across the word.
const Gamma = 0x9e3779b97f4a7c15

// Mix is the splitmix64 step applied to x: it adds Gamma and runs the
// finalizer. Stateless callers hash with it; Stream steps with it.
func Mix(x uint64) uint64 {
	x += Gamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream is a splitmix64 generator whose value is its state. It is not
// safe for concurrent use; callers that share one hold a lock.
type Stream uint64

// Next advances the stream and returns its next word.
func (s *Stream) Next() uint64 {
	x := Mix(uint64(*s))
	*s += Gamma
	return x
}

// Float returns the next word as a uniform float64 in [0, 1), using
// its low 53 bits.
func (s *Stream) Float() float64 {
	return float64(s.Next()%(1<<53)) / (1 << 53)
}

// Hash is FNV-1a 64 over the bytes of s. It does not allocate.
func Hash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}
