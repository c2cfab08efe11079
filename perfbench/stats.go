package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (q=0.5 is the median). NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailOf is the highest percentile of xs that still has ten samples beyond
// it: the eleventh-largest sample. pct names that percentile. ok is false
// below eleven samples, where no such percentile exists.
func tailOf(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return math.NaN(), 0, false
	}
	s := sorted(xs)
	return s[n-11], 100 * float64(n-10) / float64(n), true
}

func maxOf(xs []float64) float64 {
	m := math.NaN()
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a rung with no base reads as absent).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// splitmix64 derives independent seeds from the workload seed, so every
// generated input is a pure function of --seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// gather concatenates the samples pick takes from each client.
func gather[C any](clients []C, pick func(C) []float64) []float64 {
	var out []float64
	for _, c := range clients {
		out = append(out, pick(c)...)
	}
	return out
}
