// Package trust implements the paper's reputation collection and trust /
// activity evaluation mechanisms (§3.1–3.2, Fig 1a–b).
//
// Each node keeps, for every other node it has observed, two counters: how
// many packets that node was asked to forward (ps) and how many it actually
// forwarded (pf). The forwarding rate pf/ps feeds a four-level trust lookup
// table; the raw pf counts feed the three-level activity evaluation. Both
// feed the strategy's forwarding decision and the payoff table.
//
// Storage is dense: a Store is a NodeID-indexed slice of records, not a
// map. NodeIDs are dense small integers by construction
// (tournament.BuildRegistry panics on gaps or duplicates — see DESIGN.md),
// so a slice sized to the registry covers every possible peer with one
// bounds-checked index per lookup and zero steady-state allocations. A
// record is just the two counters: the forwarding rate pf/ps and its Fig 1b
// trust level are computed when a reader needs them, so observation stays
// integer-only and nothing derived can go stale. A game writes records
// about k times more often than it reads them on a k-intermediate path, so
// a cached rate would be recomputed before most reads anyway.
package trust

import (
	"fmt"

	"adhocga/internal/network"
	"adhocga/internal/strategy"
)

// record holds the two per-pair reputation counters of §3.1. A node is
// known iff requests > 0 (every code path that touches a record increments
// requests by ≥ 1).
//
// The counters are uint32, which packs a record into 8 bytes instead of
// 16 — a game touches O(path²) records spread over every participant's
// store (Fig 1a: each observer updates each intermediate), so halving the
// record keeps roughly twice as many stores resident in L2. Counters are
// per-pair within one generation (reset at every generation boundary),
// which bounds them around rounds·hops — the paper's tournaments reach
// ~10⁵, nowhere near the 4.3·10⁹ ceiling. Gossip merges, the only
// non-unit increments, saturate at the ceiling rather than wrapping.
type record struct {
	requests uint32 // ps: packets this node was asked ("sent") to forward
	forwards uint32 // pf: packets it actually forwarded
}

// Store is one node's private reputation memory about other nodes, indexed
// densely by NodeID. It is not safe for concurrent use; in the simulator
// each player owns exactly one Store and tournaments mutate it from a
// single goroutine.
//
// The store grows on demand when an unseen NodeID is observed, but callers
// that know the full ID range (the tournament runner sizes every
// participant's store to the registry) should pre-size it with EnsureSize
// so the steady state never allocates.
type Store struct {
	rec []record

	// known counts records with requests > 0.
	known int

	// forwardsSum caches Σ pf over all known nodes so that the §3.2
	// activity average is O(1) per query instead of O(known nodes).
	forwardsSum uint64
}

// NewStore returns an empty reputation memory. The store grows as nodes
// are observed; use NewStoreSized or EnsureSize when the ID range is known
// up front.
func NewStore() *Store {
	return &Store{}
}

// NewStoreSized returns an empty reputation memory pre-sized for NodeIDs
// 0..n-1.
func NewStoreSized(n int) *Store {
	s := NewStore()
	s.EnsureSize(n)
	return s
}

// EnsureSize grows the store to cover NodeIDs 0..n-1. Existing data is
// preserved; new entries are unknown. It never shrinks.
func (s *Store) EnsureSize(n int) {
	if n <= len(s.rec) {
		return
	}
	old := len(s.rec)
	if n <= cap(s.rec) {
		s.rec = s.rec[:n]
		clear(s.rec[old:])
		return
	}
	c := 2 * cap(s.rec)
	if c < n {
		c = n
	}
	rec := make([]record, n, c)
	copy(rec, s.rec)
	s.rec = rec
}

// Size returns the number of NodeIDs the store currently covers (known or
// not).
func (s *Store) Size() int { return len(s.rec) }

// Reset forgets everything but keeps the allocated capacity; the
// evaluation scheme clears all memories at the start of each generation
// (§4.4 step 1).
func (s *Store) Reset() {
	clear(s.rec)
	s.known = 0
	s.forwardsSum = 0
}

// Observe records one watchdog observation about a node: it was asked to
// forward a packet and either did (forwarded=true) or dropped it. The
// write path is integer-only: nothing derived from the counters is stored.
//
// The in-range case (the only one a pre-sized tournament store ever sees)
// is a few increments; only growth takes the slow path.
func (s *Store) Observe(id network.NodeID, forwarded bool) {
	if int(id) < len(s.rec) {
		r := &s.rec[id]
		if r.requests == 0 {
			s.known++
		}
		r.requests++
		if forwarded {
			r.forwards++
			s.forwardsSum++
		}
		return
	}
	s.observeSlow(id, forwarded)
}

// ObservePath records one game's worth of Fig 1a observations in bulk:
// for every position j, ids[j] is observed as having forwarded unless
// j == firstDrop (pass firstDrop = -1 for a delivered packet, so that
// every node forwarded). Entries equal to self are skipped — a node never
// observes itself. Equivalent to calling Observe per entry, minus the
// per-observation call overhead on the game hot path.
func (s *Store) ObservePath(ids []network.NodeID, self network.NodeID, firstDrop int) {
	for j, id := range ids {
		if id == self {
			continue
		}
		forwarded := j != firstDrop
		if int(id) < len(s.rec) {
			r := &s.rec[id]
			if r.requests == 0 {
				s.known++
			}
			r.requests++
			if forwarded {
				r.forwards++
				s.forwardsSum++
			}
			continue
		}
		s.observeSlow(id, forwarded)
	}
}

// observeSlow is the growth path: the ID is beyond the store, so the
// store is enlarged first. Pre-sized tournament stores never come here.
func (s *Store) observeSlow(id network.NodeID, forwarded bool) {
	s.EnsureSize(int(id) + 1)
	r := &s.rec[id]
	if r.requests == 0 {
		s.known++
	}
	r.requests++
	if forwarded {
		r.forwards++
		s.forwardsSum++
	}
}

// Forget erases everything the store knows about one node, in place: the
// counters are zeroed, so the node rates network.UnknownRate again, and
// the known count and activity mean drop the node's contribution. It is
// the identity-remap primitive of the dynamics layer (internal/dynamics):
// when churn recycles a NodeID for a fresh node, every store that might
// still hold the departed node's reputation forgets the ID without
// reallocating or disturbing any other record. Forgetting an ID the store
// never saw (including IDs beyond its size) is a no-op.
func (s *Store) Forget(id network.NodeID) {
	if int(id) >= len(s.rec) {
		return
	}
	r := &s.rec[id]
	if r.requests == 0 {
		return
	}
	s.known--
	s.forwardsSum -= uint64(r.forwards)
	*r = record{}
}

// Known reports whether the store has any data about the node.
func (s *Store) Known(id network.NodeID) bool {
	return int(id) < len(s.rec) && s.rec[id].requests > 0
}

// KnownCount returns the number of nodes with at least one observation.
func (s *Store) KnownCount() int { return s.known }

// Requests returns ps for the node (0 if unknown).
func (s *Store) Requests(id network.NodeID) uint64 {
	if int(id) < len(s.rec) {
		return uint64(s.rec[id].requests)
	}
	return 0
}

// Forwards returns pf for the node (0 if unknown).
func (s *Store) Forwards(id network.NodeID) uint64 {
	if int(id) < len(s.rec) {
		return uint64(s.rec[id].forwards)
	}
	return 0
}

// ForwardingRate returns pf/ps for the node and whether the node is known.
func (s *Store) ForwardingRate(id network.NodeID) (float64, bool) {
	if !s.Known(id) {
		return 0, false
	}
	r := &s.rec[id]
	return float64(r.forwards) / float64(r.requests), true
}

// MeanForwards returns the average pf over all known nodes — the "av"
// value of §3.2 — and whether any node is known.
func (s *Store) MeanForwards() (float64, bool) {
	if s.known == 0 {
		return 0, false
	}
	return float64(s.forwardsSum) / float64(s.known), true
}

// KnownNodes returns the IDs the store has data about, in ascending order
// (free with dense storage — no sort needed).
func (s *Store) KnownNodes() []network.NodeID {
	ids := make([]network.NodeID, 0, s.known)
	for i := range s.rec {
		if s.rec[i].requests > 0 {
			ids = append(ids, network.NodeID(i))
		}
	}
	return ids
}

// RatePaths rates every candidate path: for each path it computes the
// §3.1 rating — the product over its intermediates of pf/ps, with
// network.UnknownRate for unknown nodes and IDs beyond the store — and
// stores it into ratings, which is grown as needed and returned. The
// factors and their order are exactly those network.RatePath multiplies
// over a dense rate view, so the ratings are bit-identical to it.
func (s *Store) RatePaths(paths []network.Path, ratings []float64) []float64 {
	if cap(ratings) < len(paths) {
		ratings = make([]float64, len(paths))
	}
	ratings = ratings[:len(paths)]
	for i, p := range paths {
		rating := 1.0
		for _, id := range p.Intermediates {
			f := network.UnknownRate
			if int(id) < len(s.rec) {
				if r := &s.rec[id]; r.requests > 0 {
					f = float64(r.forwards) / float64(r.requests)
				}
			}
			rating *= f
		}
		ratings[i] = rating
	}
	return ratings
}

// Evaluate returns the source's Fig 1b trust level under table t and its
// §3.2 activity level in one O(1) lookup, and whether the source is known
// (when it is not, the strategy's unknown-node bit applies and both levels
// are meaningless). This is the forwarding-decision hot path: a single
// bounds-checked index and no map probes.
func (s *Store) Evaluate(id network.NodeID, t Table, band float64) (strategy.TrustLevel, strategy.ActivityLevel, bool) {
	if int(id) >= len(s.rec) {
		return 0, 0, false
	}
	r := &s.rec[id]
	if r.requests == 0 {
		return 0, 0, false
	}
	// known(id) implies known > 0, so av is well defined. The bounds are
	// recomputed per call: forwardsSum moves with nearly every observation
	// the store makes, so between two decisions by the same store it has
	// almost always changed — a cache keyed on it never hits (measured).
	av := float64(s.forwardsSum) / float64(s.known)
	srcF := float64(r.forwards)
	act := strategy.ActivityMedium
	switch {
	case srcF < av-band*av:
		act = strategy.ActivityLow
	case srcF > av+band*av:
		act = strategy.ActivityHigh
	}
	return t.Level(float64(r.forwards) / float64(r.requests)), act, true
}

// Table is the trust lookup table of Fig 1b, mapping a forwarding rate to
// one of four trust levels. Thresholds are the lower bounds of levels
// 3, 2, 1 (descending); rates below Thresholds[2] map to level 0.
type Table struct {
	Thresholds [3]float64
}

// DefaultTable returns the paper's table: [1.0–0.9]→3, [0.9–0.6)→2,
// [0.6–0.3)→1, [0.3–0)→0. Boundary rates belong to the higher level.
func DefaultTable() Table {
	return Table{Thresholds: [3]float64{0.9, 0.6, 0.3}}
}

// Validate checks that thresholds are strictly descending within (0,1).
func (t Table) Validate() error {
	prev := 1.0
	for i, th := range t.Thresholds {
		if th <= 0 || th >= 1 {
			return fmt.Errorf("trust: threshold %d = %v outside (0,1)", i, th)
		}
		if th >= prev {
			return fmt.Errorf("trust: thresholds must be strictly descending, got %v", t.Thresholds)
		}
		prev = th
	}
	return nil
}

// Level maps a forwarding rate to a trust level.
func (t Table) Level(rate float64) strategy.TrustLevel {
	switch {
	case rate >= t.Thresholds[0]:
		return strategy.Trust3
	case rate >= t.Thresholds[1]:
		return strategy.Trust2
	case rate >= t.Thresholds[2]:
		return strategy.Trust1
	default:
		return strategy.Trust0
	}
}

// LevelOf looks a node up in the store and maps it through the table. The
// boolean is false when the node is unknown, in which case the strategy's
// unknown-node bit applies instead. It is the reference Store.Evaluate's
// trust level agrees with for the same table.
func (t Table) LevelOf(s *Store, id network.NodeID) (strategy.TrustLevel, bool) {
	rate, known := s.ForwardingRate(id)
	if !known {
		return 0, false
	}
	return t.Level(rate), true
}

// DefaultActivityBand is the ±20% band around the average of §3.2.
const DefaultActivityBand = 0.2

// ActivityOf computes the §3.2 activity level of the source as seen by the
// owner of the store: the source's pf is compared against av, the mean pf
// over all nodes the evaluator knows. Within ±band·av → medium; below →
// low; above → high. The boolean is false when the evaluator knows nothing
// about the source (activity is then irrelevant: the unknown-node rule
// decides).
//
// Note the asymmetry inherited from the paper: av averages over the nodes
// the evaluator knows, whether or not that includes the source.
func ActivityOf(s *Store, src network.NodeID, band float64) (strategy.ActivityLevel, bool) {
	_, act, known := s.Evaluate(src, DefaultTable(), band)
	return act, known
}
