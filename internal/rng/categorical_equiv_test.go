package rng

import (
	"math"
	"math/bits"
	"strconv"
	"testing"
)

// refScan is the float form of the categorical decision: the first index
// whose cumulative weight strictly exceeds u, or, when u reaches the
// total, the last positive-weight outcome. Sample must agree with it fed
// Float64()·total for every draw.
func refScan(cum []float64, u float64) int {
	for i, ci := range cum {
		if u < ci {
			return i
		}
	}
	i := len(cum) - 1
	for i > 0 && cum[i] == cum[i-1] {
		i--
	}
	return i
}

// sourceAt returns a Source whose next draw has x as its top 53 bits. The
// xoshiro256** output depends on s[1] alone, through two invertible steps
// (an odd multiply and a rotate), so s[1] can be solved for.
func sourceAt(x uint64) *Source {
	out := x << 11
	s := New(1)
	s.s[1] = bits.RotateLeft64(out*oddInverse(9), -7) * oddInverse(5)
	return s
}

// oddInverse returns the inverse of an odd a modulo 2⁶⁴ (Newton's
// iteration doubles the correct low bits each step).
func oddInverse(a uint64) uint64 {
	inv := a
	for i := 0; i < 6; i++ {
		inv *= 2 - a*inv
	}
	return inv
}

func TestSourceAtProducesDraw(t *testing.T) {
	for _, x := range []uint64{0, 1, 12345, 1<<52 + 7, 1<<53 - 1} {
		if got := sourceAt(x).Uint64() >> 11; got != x {
			t.Fatalf("sourceAt(%d) draws %d", x, got)
		}
	}
}

// equivalenceTables returns the weight vectors the integer categorical is
// checked on: the paper's Table 2 and Table 3 rows, SP↔LP blends whose
// totals are not exactly 1, zero-weight outcomes and a single outcome.
func equivalenceTables(t *testing.T) map[string][]float64 {
	sp := []float64{0.20, 0.30, 0.30, 0.05, 0.05, 0.05, 0.05, 0, 0}
	lp := []float64{0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.15, 0.15}
	tables := map[string][]float64{
		"table2 SP":        sp,
		"table2 LP":        lp,
		"table3 2-3 hops":  {0.5, 0.3, 0.2},
		"table3 4-6 hops":  {0.6, 0.25, 0.15},
		"table3 7-10 hops": {0.8, 0.15, 0.05},
		"zero weights":     {0, 1, 0, 2, 0},
		"zero tail":        {3, 0, 0},
		"single outcome":   {7},
		"tiny and huge":    {1e-300, 1e300, 1},
		"thirds":           {1, 1, 1},
	}
	many := make([]float64, 300) // past the uint8 guess hint
	for i := range many {
		many[i] = float64(i%7) + 0.25
	}
	tables["300 outcomes"] = many
	inexact := 0
	for _, a := range []float64{0.1, 0.25, 0.37, 0.5, 0.73, 0.9} {
		w := make([]float64, len(sp))
		total := 0.0
		for i := range w {
			w[i] = (1-a)*sp[i] + a*lp[i]
			total += w[i]
		}
		if total != 1 {
			inexact++
		}
		tables["mixed "+strconv.FormatFloat(a, 'g', -1, 64)] = w
	}
	if inexact == 0 {
		t.Fatal("no blended table has a total other than 1; the blends cover nothing the rows do not")
	}
	return tables
}

func TestCategoricalSampleMatchesFloatScan(t *testing.T) {
	check := func(t *testing.T, weights []float64, draws int, seed uint64) {
		t.Helper()
		c := MustCategorical(weights)
		total := c.cum[len(c.cum)-1]
		s, ref := New(seed), New(seed)
		for i := 0; i < draws; i++ {
			got := c.Sample(s)
			want := refScan(c.cum, ref.Float64()*total)
			if got != want {
				t.Fatalf("draw %d of %v: Sample = %d, scan = %d", i, weights, got, want)
			}
		}
		if *s != *ref {
			t.Fatalf("%v: Sample consumed a different stream than Float64", weights)
		}
	}
	for name, w := range equivalenceTables(t) {
		t.Run(name, func(t *testing.T) { check(t, w, 20000, 3) })
	}
	t.Run("random", func(t *testing.T) {
		r := New(77)
		for trial := 0; trial < 300; trial++ {
			w := make([]float64, 1+r.Intn(40))
			if trial%25 == 0 {
				w = make([]float64, 257+r.Intn(50)) // past the uint8 guess hint
			}
			scale := math.Pow(10, float64(r.Intn(21)-10))
			for i := range w {
				if r.Intn(4) > 0 {
					w[i] = r.Float64() * scale
				}
			}
			w[r.Intn(len(w))] += scale // at least one positive weight
			check(t, w, 500, uint64(trial))
		}
	})
}

// Every threshold is an exact boundary: the draw just below it decides
// below cum[i], the draw at it and the one above at or past cum[i], and
// Sample agrees with the float scan at all three.
func TestCategoricalThresholdsAreExact(t *testing.T) {
	for name, w := range equivalenceTables(t) {
		c := MustCategorical(w)
		total := c.cum[len(c.cum)-1]
		for i, ci := range c.cum {
			thr := c.thr[i+1]
			if thr < 1<<53 && !(uniform(thr, total) >= ci) {
				t.Errorf("%s: thr[%d]=%d gives %v < cum %v", name, i+1, thr, uniform(thr, total), ci)
			}
			if thr > 0 && !(uniform(thr-1, total) < ci) {
				t.Errorf("%s: thr[%d]-1 gives %v ≥ cum %v", name, i+1, uniform(thr-1, total), ci)
			}
			for _, x := range []uint64{thr - 1, thr, thr + 1} {
				if x >= 1<<53 { // also skips thr-1 when thr == 0
					continue
				}
				got := c.Sample(sourceAt(x))
				if want := refScan(c.cum, uniform(x, total)); got != want {
					t.Errorf("%s: x=%d (thr[%d]%+d): Sample = %d, scan = %d", name, x, i+1, int64(x-thr), got, want)
				}
			}
		}
		for _, x := range []uint64{0, 1<<53 - 1} {
			if got, want := c.Sample(sourceAt(x)), refScan(c.cum, uniform(x, total)); got != want {
				t.Errorf("%s: x=%d: Sample = %d, scan = %d", name, x, got, want)
			}
		}
		// The scan's "u equals the total" rule, reached at x = 2⁵³.
		if got, want := c.scan(1<<53), refScan(c.cum, total); got != want {
			t.Errorf("%s: scan at the total = %d, want %d", name, got, want)
		}
	}
}
