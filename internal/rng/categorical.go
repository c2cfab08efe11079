package rng

import (
	"fmt"
	"math/bits"
)

// Categorical is a fixed discrete distribution over the outcomes
// 0..len(weights)-1. Construction validates and normalizes the weights
// once and turns the cumulative table into integer thresholds over the
// 53-bit draw; sampling then compares integers only.
//
// A Categorical is immutable after construction and therefore safe to
// share across goroutines (each goroutine still needs its own Source).
type Categorical struct {
	cum []float64 // non-decreasing, cum[len-1] == total

	// thr[i+1] is the smallest 53-bit draw x whose uniform
	// float64(x)/2⁵³·total reaches cum[i] (2⁵³ if none does), and
	// thr[0] = 0. The product is monotone in x, so the scan's test
	// u < cum[i] holds exactly when x < thr[i+1], and outcome o is the
	// scan's answer exactly when thr[o] ≤ x < thr[o+1]. Like BitMask's
	// thresholds these are exact boundaries, not approximations.
	thr []uint64

	// lut is a 256-bucket guess table over the draw's top 8 bits: bucket
	// b holds the outcome for the bucket's midpoint draw. Sample checks
	// the guess against thr before trusting it, so a boundary bucket can
	// never change an outcome, only send it down the scan fallback. Flat
	// tables hit the guess on nearly every draw, turning the sample into
	// a shift, a byte load and two predictable compares.
	lut [256]uint8
}

// NewCategorical builds a categorical distribution from non-negative
// weights. At least one weight must be positive.
func NewCategorical(weights []float64) (*Categorical, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("rng: categorical needs at least one weight")
	}
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 || w != w { // negative or NaN
			return nil, fmt.Errorf("rng: categorical weight %d is invalid (%v)", i, w)
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		return nil, fmt.Errorf("rng: categorical weights sum to zero")
	}
	c := &Categorical{cum: cum, thr: make([]uint64, len(cum)+1)}
	for i, ci := range cum {
		// Smallest x in [0, 2⁵³] with uniform(x) ≥ cum[i]; x = 2⁵³ gives
		// exactly total ≥ cum[i], so the search always lands.
		lo, hi := uint64(0), uint64(1)<<53
		for lo < hi {
			mid := lo + (hi-lo)/2
			if uniform(mid, total) >= ci {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		c.thr[i+1] = lo
	}
	for b := range c.lut {
		// Seed each bucket with the scan's answer for the bucket's
		// midpoint. An outcome index beyond uint8 stays 0; Sample's
		// check rejects any wrong guess, so this is purely a hint.
		if idx := c.scan(uint64(b)<<45 | 1<<44); idx < 256 {
			c.lut[b] = uint8(idx)
		}
	}
	return c, nil
}

// uniform is the draw-to-uniform map Sample's decision restates: a 53-bit
// draw x is the scan input float64(x)/2⁵³·total, the same expression as
// Float64()·total.
func uniform(x uint64, total float64) float64 {
	return float64(x) / (1 << 53) * total
}

// MustCategorical is NewCategorical that panics on invalid weights. Use it
// for static tables known to be correct.
func MustCategorical(weights []float64) *Categorical {
	c, err := NewCategorical(weights)
	if err != nil {
		panic(err)
	}
	return c
}

// Len returns the number of outcomes.
func (c *Categorical) Len() int { return len(c.cum) }

// Prob returns the probability of outcome i.
func (c *Categorical) Prob(i int) float64 {
	total := c.cum[len(c.cum)-1]
	if i == 0 {
		return c.cum[0] / total
	}
	return (c.cum[i] - c.cum[i-1]) / total
}

// Sample draws one outcome index according to the weights. The draw
// consumes exactly one engine step and decides identically to
// s.Float64()*total fed to the linear scan over cum.
func (c *Categorical) Sample(s *Source) int {
	// The xoshiro step is written out rather than calling Float64: Sample
	// is itself too large to inline, so the engine call inside Float64
	// would be a second call level on a two-draws-per-game hot path. The
	// state update is identical to Uint64's (see Uint64n for the same
	// pattern), so interleaving Sample with other draws replays the same
	// stream.
	result := bits.RotateLeft64(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = bits.RotateLeft64(s.s[3], 45)
	x := result >> 11
	// Guess the outcome from the draw's top 8 bits, then check it against
	// the thresholds: thr[o] ≤ x < thr[o+1] is exactly "o is the first
	// index whose cumulative weight strictly exceeds uniform(x)". A checked
	// guess is therefore identical to the scan below; a miss (boundary
	// bucket, an outcome beyond the uint8 hint) falls back to it.
	thr := c.thr
	if o := int(c.lut[x>>45]); o+1 < len(thr) && thr[o] <= x && x < thr[o+1] {
		return o
	}
	return c.scan(x)
}

// scan is the reference linear scan Sample's guess table is checked
// against, over the integer thresholds: the first index i with
// x < thr[i+1], i.e. whose cumulative weight strictly exceeds
// uniform(x). Zero-weight outcomes have thr[i+1] == thr[i] and can never
// be selected (not even at x == 0).
func (c *Categorical) scan(x uint64) int {
	thr := c.thr[1:]
	for i, ti := range thr {
		if x < ti {
			return i
		}
	}
	// uniform(x) landed exactly on the total; take the last
	// positive-weight outcome.
	i := len(thr) - 1
	for i > 0 && thr[i] == thr[i-1] {
		i--
	}
	return i
}
