package network

import (
	"math"
	"testing"
	"testing/quick"

	"adhocga/internal/rng"
)

func participantSet(n int) []NodeID {
	ps := make([]NodeID, n)
	for i := range ps {
		ps[i] = NodeID(i)
	}
	return ps
}

func TestCandidatesInvariants(t *testing.T) {
	r := rng.New(7)
	g := NewGenerator(ShorterPaths())
	parts := participantSet(50)
	for trial := 0; trial < 2000; trial++ {
		src := NodeID(r.Intn(50))
		paths := g.Candidates(r, src, parts)
		if len(paths) < 1 || len(paths) > MaxAlternatePaths {
			t.Fatalf("%d candidate paths", len(paths))
		}
		hops := paths[0].Hops()
		if hops < MinHops || hops > MaxHops {
			t.Fatalf("hop count %d", hops)
		}
		dst := paths[0].Dst
		for _, p := range paths {
			if p.Src != src {
				t.Fatalf("path source %d, want %d", p.Src, src)
			}
			if p.Dst != dst {
				t.Fatal("candidates disagree on destination")
			}
			if p.Hops() != hops {
				t.Fatal("candidates disagree on hop count")
			}
			if p.Dst == src {
				t.Fatal("destination equals source")
			}
			seen := map[NodeID]bool{src: true, p.Dst: true}
			for _, id := range p.Intermediates {
				if seen[id] {
					t.Fatalf("duplicate or src/dst node %d in intermediates %v", id, p.Intermediates)
				}
				seen[id] = true
				if int(id) < 0 || int(id) >= 50 {
					t.Fatalf("intermediate %d outside participant set", id)
				}
			}
		}
	}
}

func TestCandidatesClampsHopsForSmallSets(t *testing.T) {
	r := rng.New(8)
	g := NewGenerator(LongerPaths())
	parts := participantSet(5) // max feasible hops = 4
	for trial := 0; trial < 500; trial++ {
		paths := g.Candidates(r, 0, parts)
		for _, p := range paths {
			if p.Hops() > 4 {
				t.Fatalf("hop count %d exceeds feasibility for 5 participants", p.Hops())
			}
		}
	}
}

func TestCandidatesPanicsOnTinySet(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 1 participant")
		}
	}()
	g := NewGenerator(ShorterPaths())
	g.Candidates(rng.New(1), 0, participantSet(1))
}

func TestCandidatesHopFrequenciesFollowMode(t *testing.T) {
	r := rng.New(9)
	g := NewGenerator(ShorterPaths())
	parts := participantSet(50)
	counts := map[int]int{}
	const draws = 50000
	for i := 0; i < draws; i++ {
		counts[g.Candidates(r, 0, parts)[0].Hops()]++
	}
	d := ShorterPathLengths()
	for hops := MinHops; hops <= MaxHops; hops++ {
		got := float64(counts[hops]) / draws
		if math.Abs(got-d.Prob(hops)) > 0.01 {
			t.Errorf("hop %d frequency %v, want %v", hops, got, d.Prob(hops))
		}
	}
}

func TestRatePath(t *testing.T) {
	// Dense rate view: ids 0..2 covered, id 3 beyond the slice (unknown).
	rates := []float64{UnknownRate, 0.9, 0.8}
	p := Path{Src: 0, Dst: 5, Intermediates: []NodeID{1, 2}}
	if got := RatePath(p, rates); math.Abs(got-0.72) > 1e-12 {
		t.Errorf("RatePath = %v, want 0.72", got)
	}
	// Unknown intermediate (beyond the view) contributes 0.5.
	p2 := Path{Src: 0, Dst: 5, Intermediates: []NodeID{1, 3}}
	if got := RatePath(p2, rates); math.Abs(got-0.45) > 1e-12 {
		t.Errorf("RatePath with unknown = %v, want 0.45", got)
	}
	// Empty path rates 1 (nothing can drop).
	if got := RatePath(Path{Src: 0, Dst: 1}, rates); got != 1 {
		t.Errorf("empty path rating = %v", got)
	}
}

func TestSelectBestPicksHighestRating(t *testing.T) {
	r := rng.New(10)
	rates := []float64{UnknownRate, 0.1, 0.9}
	candidates := []Path{
		{Src: 0, Dst: 9, Intermediates: []NodeID{1}},
		{Src: 0, Dst: 9, Intermediates: []NodeID{2}},
	}
	for i := 0; i < 100; i++ {
		if got := SelectBest(r, candidates, rates); got != 1 {
			t.Fatalf("SelectBest = %d, want 1", got)
		}
	}
}

func TestSelectBestUniformTieBreak(t *testing.T) {
	r := rng.New(11)
	var rates []float64 // all unknown → equal ratings
	candidates := []Path{
		{Src: 0, Dst: 9, Intermediates: []NodeID{1}},
		{Src: 0, Dst: 9, Intermediates: []NodeID{2}},
		{Src: 0, Dst: 9, Intermediates: []NodeID{3}},
	}
	counts := make([]int, 3)
	const draws = 30000
	for i := 0; i < draws; i++ {
		counts[SelectBest(r, candidates, rates)]++
	}
	for i, c := range counts {
		got := float64(c) / draws
		if math.Abs(got-1.0/3.0) > 0.02 {
			t.Errorf("tie-broken choice %d frequency %v, want 1/3", i, got)
		}
	}
}

func TestSelectBestPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	SelectBest(rng.New(1), nil, nil)
}

// Property: the path rating is always in [0,1] when all rates are, and
// adding an intermediate can never increase the rating.
func TestRatePathMonotoneProperty(t *testing.T) {
	r := rng.New(12)
	f := func(seed uint64, n uint8) bool {
		rr := rng.New(seed)
		k := int(n)%8 + 1
		rates := make([]float64, k+1)
		rates[0] = UnknownRate
		inter := make([]NodeID, k)
		for i := range inter {
			inter[i] = NodeID(i + 1)
			rates[inter[i]] = rr.Float64()
		}
		full := Path{Src: 0, Dst: 99, Intermediates: inter}
		prefix := Path{Src: 0, Dst: 99, Intermediates: inter[:k-1]}
		rf, rp := RatePath(full, rates), RatePath(prefix, rates)
		return rf >= 0 && rf <= 1 && rf <= rp
	}
	_ = r
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCandidates(b *testing.B) { benchmarkCandidates(b, ShorterPaths()) }

// BenchmarkCandidatesLP is BenchmarkCandidates under the LP path mode,
// whose longer routes run more Fisher–Yates steps per path.
func BenchmarkCandidatesLP(b *testing.B) { benchmarkCandidates(b, LongerPaths()) }

func benchmarkCandidates(b *testing.B, mode PathMode) {
	r := rng.New(1)
	g := NewGenerator(mode)
	parts := participantSet(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Candidates(r, NodeID(i%50), parts)
	}
}

func BenchmarkSelectBest(b *testing.B) {
	r := rng.New(1)
	g := NewGenerator(LongerPaths())
	parts := participantSet(50)
	rates := make([]float64, 50)
	for i := range rates {
		rates[i] = float64(i) / 50
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths := g.Candidates(r, 0, parts)
		_ = SelectBest(r, paths, rates)
	}
}
