package trust

import (
	"math"

	"adhocga/internal/network"
)

// Second-hand reputation exchange, the extension the paper's related work
// discusses (§2): CORE exchanges only positive ratings so that "a
// malicious broadcast of negative rankings for legitimate nodes is
// avoided"; CONFIDANT and Buchegger & Le Boudec's rumor-spreading study
// weigh second-hand reports below first-hand observation. MergePositive
// implements that scheme: import another node's observations about third
// parties, but only favorable ones, and scaled down by a weight.

// MergePositive imports src's observations about third parties into s:
// for every node src knows with a forwarding rate of at least minRate,
// s's counters grow by weight times src's counters (rounded, with a floor
// of one request so that tiny weights still register the node as known).
// Nodes about whom the receiver is the subject (self) are skipped, as are
// negative reports (rate below minRate).
//
// Peers are visited in ascending NodeID order — a free guarantee of the
// dense store (the map representation iterated in random order; the merge
// is commutative, so results were already order-independent, but the fixed
// order makes the traversal itself deterministic and cache-friendly).
//
// The merge is additive: gossiping the same data twice counts it twice.
// Callers model credibility by keeping weight well below 1, matching the
// "more relevance is given to ... own experience" design of CORE.
func (s *Store) MergePositive(self network.NodeID, src *Store, minRate, weight float64) {
	s.merge(self, src, minRate, weight, false)
}

// MergeInverted is the gossip-liar variant of MergePositive (see
// internal/dynamics): the receiver imports src's observations with the
// forwarding counters inverted, as a Byzantine liar would report them —
// every observed drop becomes a claimed forward and vice versa. The
// receiver's minRate filter still applies, but to the lied rate, so a
// liar's "positive" reports about heavy droppers pass the CORE-style
// positive-only filter while its slander of reliable forwarders is
// discarded. Deterministic and allocation-identical to MergePositive.
func (s *Store) MergeInverted(self network.NodeID, src *Store, minRate, weight float64) {
	s.merge(self, src, minRate, weight, true)
}

func (s *Store) merge(self network.NodeID, src *Store, minRate, weight float64, invert bool) {
	if weight <= 0 {
		return
	}
	for id := range src.rec {
		rec := &src.rec[id]
		if network.NodeID(id) == self || rec.requests == 0 {
			continue
		}
		forwards := uint64(rec.forwards)
		if invert {
			forwards = uint64(rec.requests) - forwards
		}
		if float64(forwards)/float64(rec.requests) < minRate {
			continue
		}
		addReq := uint64(math.Round(float64(rec.requests) * weight))
		if addReq == 0 {
			addReq = 1
		}
		addFwd := uint64(math.Round(float64(forwards) * weight))
		if addFwd > addReq {
			addFwd = addReq
		}
		s.EnsureSize(id + 1)
		dst := &s.rec[id]
		if dst.requests == 0 {
			s.known++
		}
		// The only non-unit counter increments in the store: saturate at
		// the uint32 record ceiling instead of wrapping (unreachable in
		// any realistic run — see the record doc).
		newReq := uint64(dst.requests) + addReq
		newFwd := uint64(dst.forwards) + addFwd
		if newReq > math.MaxUint32 {
			newReq = math.MaxUint32
		}
		if newFwd > math.MaxUint32 {
			newFwd = math.MaxUint32
		}
		s.forwardsSum += newFwd - uint64(dst.forwards)
		dst.requests = uint32(newReq)
		dst.forwards = uint32(newFwd)
	}
}
