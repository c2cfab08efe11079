package network

import (
	"math"
	"slices"
	"strconv"
	"testing"

	"adhocga/internal/rng"
)

// referenceCandidates is the naive form of Generator.Candidates: it
// materializes the intermediate pool (participants minus src and dst, in
// order) for every path and runs the partial Fisher–Yates on it in place.
// Candidates must draw the same numbers in the same order and return the
// same paths.
func referenceCandidates(r *rng.Source, mode PathMode, src NodeID, participants []NodeID) []Path {
	n := len(participants)
	hops := mode.Lengths.Sample(r)
	if hops > n-1 {
		hops = n - 1
	}
	count := mode.Alternates.Sample(r, hops)
	var others []NodeID // participants minus src, in order
	for _, id := range participants {
		if id != src {
			others = append(others, id)
		}
	}
	dst := others[r.Intn(len(others))]
	paths := make([]Path, count)
	for i := range paths {
		var pool []NodeID
		for _, id := range participants {
			if id != src && id != dst {
				pool = append(pool, id)
			}
		}
		inter := make([]NodeID, hops-1)
		for x := range inter {
			j := x + r.Intn(len(pool)-x)
			pool[x], pool[j] = pool[j], pool[x]
			inter[x] = pool[x]
		}
		paths[i] = Path{Src: src, Dst: dst, Intermediates: inter}
	}
	return paths
}

// candidateCase draws one call's participants and source: a shuffled
// subset of 0..299 of size n, with src usually a participant (in seat
// order, as tournaments call, or at random) and sometimes absent.
func candidateCase(r *rng.Source, n, call int) (NodeID, []NodeID) {
	parts := make([]NodeID, n)
	for i, v := range r.Perm(300)[:n] {
		parts[i] = NodeID(v)
	}
	switch call % 4 {
	case 0, 1:
		return parts[call%n], parts
	case 2:
		return parts[r.Intn(n)], parts
	default:
		for {
			if id := NodeID(r.Intn(300)); !slices.Contains(parts, id) {
				return id, parts
			}
		}
	}
}

// checkAgainstReference runs calls Candidates calls on g and on the
// reference from one seed, comparing every path and the rng state after
// each call. sizes gives each call's participant count, so a sequence
// can shrink, grow and reorder the set between calls.
func checkAgainstReference(t *testing.T, g *Generator, seed uint64, sizes func(call int) int, calls int) {
	t.Helper()
	r, ref := rng.New(seed), rng.New(seed)
	cases := rng.New(seed + 1)
	for call := 0; call < calls; call++ {
		src, parts := candidateCase(cases, sizes(call), call)
		before := slices.Clone(parts)
		got := g.Candidates(r, src, parts)
		want := referenceCandidates(ref, g.Mode(), src, parts)
		if !slices.Equal(parts, before) {
			t.Fatalf("call %d: Candidates modified participants", call)
		}
		if len(got) != len(want) {
			t.Fatalf("call %d (n=%d, src=%d): %d paths, want %d", call, len(parts), src, len(got), len(want))
		}
		for i := range got {
			if got[i].Src != want[i].Src || got[i].Dst != want[i].Dst || !slices.Equal(got[i].Intermediates, want[i].Intermediates) {
				t.Fatalf("call %d (n=%d, src=%d) path %d: %v, want %v", call, len(parts), src, i, got[i], want[i])
			}
		}
		if *r != *ref {
			t.Fatalf("call %d (n=%d): rng state differs from the reference", call, len(parts))
		}
	}
}

func TestCandidatesMatchReference(t *testing.T) {
	modes := []PathMode{ShorterPaths(), LongerPaths(), MixedPaths(0.37)}
	for _, mode := range modes {
		for _, n := range []int{2, 3, 5, 50, 130} {
			t.Run(mode.Name+"/n="+strconv.Itoa(n), func(t *testing.T) {
				g := NewGenerator(mode)
				checkAgainstReference(t, g, uint64(n), func(int) int { return n }, 3000)
			})
		}
		t.Run(mode.Name+"/varying", func(t *testing.T) {
			// Shrinking, growing and reordered sets on one Generator: the
			// slots grow past their first size, and slots written for an
			// earlier, larger pool are read again stale.
			g := NewGenerator(mode)
			sizes := []int{5, 2, 3, 50, 130, 12, 60, 2, 250, 9, 131}
			checkAgainstReference(t, g, 99, func(call int) int { return sizes[call%len(sizes)] }, 6000)
		})
	}
}

// The epoch is 32 bits and moves once per path; on wrap-around the slots
// are cleared. Each cycle starts just below the top, so the wrap runs and
// the paths after it reuse the low epochs the previous cycle stamped its
// slots with; the small pools make those stale slots certain to be read.
func TestCandidatesEpochWrapAround(t *testing.T) {
	g := NewGenerator(LongerPaths())
	for cycle := 0; cycle < 300; cycle++ {
		g.epoch = math.MaxUint32 - uint32(cycle%3)
		checkAgainstReference(t, g, uint64(cycle), func(call int) int { return 6 + call%20 }, 4)
		if g.epoch > 20 {
			t.Fatalf("cycle %d: epoch %d, the wrap-around did not run", cycle, g.epoch)
		}
	}
}
