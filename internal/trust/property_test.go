package trust

import (
	"math"
	"testing"

	"adhocga/internal/network"
	"adhocga/internal/rng"
	"adhocga/internal/strategy"
)

// Property-based tests: a Store is driven through long random
// interleavings of every operation (observe, bulk observe, path rating,
// resize, forget, reset, table swap, gossip merges) against a naive
// counter model, checking after every step that
//
//   - every per-node path rate equals a from-scratch recomputation,
//   - the Fig 1b trust level Evaluate reports is the current table
//     applied to the exact counter rate,
//   - known count, activity mean, and per-node counters stay exact.
//
// The model is deliberately dumb — two maps and a division — so any
// disagreement indicts the Store, not the model.

type refModel struct {
	req, fwd map[int]uint64
}

func newRefModel() *refModel {
	return &refModel{req: map[int]uint64{}, fwd: map[int]uint64{}}
}

func (m *refModel) observe(id int, forwarded bool) {
	m.req[id]++
	if forwarded {
		m.fwd[id]++
	}
}

func (m *refModel) forget(id int) {
	delete(m.req, id)
	delete(m.fwd, id)
}

func (m *refModel) reset() {
	m.req = map[int]uint64{}
	m.fwd = map[int]uint64{}
}

func (m *refModel) rate(id int) (float64, bool) {
	if m.req[id] == 0 {
		return 0, false
	}
	return float64(m.fwd[id]) / float64(m.req[id]), true
}

// pathRating is the §3.1 product over ids, in order, with UnknownRate for
// nodes the model has no data about.
func (m *refModel) pathRating(ids []network.NodeID) float64 {
	rating := 1.0
	for _, id := range ids {
		f := network.UnknownRate
		if r, ok := m.rate(int(id)); ok {
			f = r
		}
		rating *= f
	}
	return rating
}

func (m *refModel) meanForwards() (float64, bool) {
	if len(m.req) == 0 {
		return 0, false
	}
	var sum uint64
	for id := range m.req {
		sum += m.fwd[id]
	}
	return float64(sum) / float64(len(m.req)), true
}

// checkAgainst verifies every invariant of s against the model. rated
// controls whether every node's one-hop path rating is checked too, so
// steps alternate between the path-rating and the decision read paths
// first.
func checkAgainst(t *testing.T, s *Store, m *refModel, table Table, band float64, rated bool) {
	t.Helper()
	if got, want := s.KnownCount(), len(m.req); got != want {
		t.Fatalf("KnownCount = %d, model has %d", got, want)
	}
	gotMean, gotOK := s.MeanForwards()
	wantMean, wantOK := m.meanForwards()
	if gotOK != wantOK || math.Abs(gotMean-wantMean) > 1e-12 {
		t.Fatalf("MeanForwards = %v/%v, model %v/%v", gotMean, gotOK, wantMean, wantOK)
	}
	if rated {
		paths := make([]network.Path, s.Size()+2)
		for id := range paths {
			paths[id].Intermediates = []network.NodeID{network.NodeID(id)}
		}
		rates := s.RatePaths(paths, nil)
		for id := range rates {
			want := network.UnknownRate
			if r, ok := m.rate(id); ok {
				want = r
			}
			if rates[id] != want {
				t.Fatalf("rates[%d] = %v, model %v", id, rates[id], want)
			}
		}
	}
	// Per-node checks through the decision read paths.
	for id := 0; id < s.Size()+2; id++ {
		nid := network.NodeID(id)
		wantRate, wantKnown := m.rate(id)
		if s.Known(nid) != wantKnown {
			t.Fatalf("Known(%d) = %v, model %v", id, s.Known(nid), wantKnown)
		}
		if s.Requests(nid) != m.req[id] || s.Forwards(nid) != m.fwd[id] {
			t.Fatalf("counters(%d) = %d/%d, model %d/%d",
				id, s.Requests(nid), s.Forwards(nid), m.req[id], m.fwd[id])
		}
		gotRate, gotKnown := s.ForwardingRate(nid)
		if gotKnown != wantKnown || (wantKnown && gotRate != wantRate) {
			t.Fatalf("ForwardingRate(%d) = %v/%v, model %v/%v", id, gotRate, gotKnown, wantRate, wantKnown)
		}
		level, act, known := s.Evaluate(nid, table, band)
		if known != wantKnown {
			t.Fatalf("Evaluate(%d) known = %v, model %v", id, known, wantKnown)
		}
		if !known {
			continue
		}
		// The level must be the current table applied to the exact
		// counter rate.
		if want := table.Level(wantRate); level != want {
			t.Fatalf("Evaluate(%d) level = %v, recompute %v (rate %v)", id, level, want, wantRate)
		}
		av, _ := m.meanForwards()
		srcF := float64(m.fwd[id])
		wantAct := strategy.ActivityMedium
		switch {
		case srcF < av-band*av:
			wantAct = strategy.ActivityLow
		case srcF > av+band*av:
			wantAct = strategy.ActivityHigh
		}
		if act != wantAct {
			t.Fatalf("Evaluate(%d) activity = %v, recompute %v", id, act, wantAct)
		}
	}
}

func TestStorePropertyRandomInterleavings(t *testing.T) {
	const (
		seeds  = 8
		steps  = 400
		maxID  = 24
		band   = DefaultActivityBand
		selfID = network.NodeID(maxID) // outside the observed range
	)
	tables := []Table{
		DefaultTable(),
		{Thresholds: [3]float64{0.8, 0.5, 0.2}},
		{Thresholds: [3]float64{0.95, 0.7, 0.4}},
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		r := rng.New(seed)
		s := NewStore()
		m := newRefModel()
		table := DefaultTable()

		// peer is a second store gossiped from, with its own model.
		peer := NewStore()
		pm := newRefModel()

		for step := 0; step < steps; step++ {
			switch op := r.Intn(12); op {
			case 0, 1, 2, 3: // single observation (the dominant op in real runs)
				id := r.Intn(maxID)
				fwd := r.Bool(0.6)
				s.Observe(network.NodeID(id), fwd)
				m.observe(id, fwd)
			case 4: // bulk path observation
				n := 1 + r.Intn(6)
				ids := make([]network.NodeID, n)
				for i := range ids {
					ids[i] = network.NodeID(r.Intn(maxID))
				}
				firstDrop := -1
				if r.Bool(0.5) {
					firstDrop = r.Intn(n)
				}
				s.ObservePath(ids, selfID, firstDrop)
				for j, id := range ids {
					m.observe(int(id), j != firstDrop)
				}
			case 5: // rate candidate paths, including out-of-range IDs
				paths := make([]network.Path, 1+r.Intn(4))
				for i := range paths {
					ids := make([]network.NodeID, r.Intn(6))
					for j := range ids {
						ids[j] = network.NodeID(r.Intn(2 * maxID))
					}
					paths[i].Intermediates = ids
				}
				for i, got := range s.RatePaths(paths, nil) {
					if want := m.pathRating(paths[i].Intermediates); got != want {
						t.Fatalf("RatePaths path %d %v = %v, model %v", i, paths[i].Intermediates, got, want)
					}
				}
			case 6: // resize
				s.EnsureSize(r.Intn(2 * maxID))
			case 7: // forget (the dynamics identity-remap primitive)
				id := r.Intn(2 * maxID)
				s.Forget(network.NodeID(id))
				m.forget(id)
			case 8: // table swap: the next Evaluate reads the new table
				table = tables[r.Intn(len(tables))]
			case 9: // feed the gossip peer
				id := r.Intn(maxID)
				fwd := r.Bool(0.8)
				peer.Observe(network.NodeID(id), fwd)
				pm.observe(id, fwd)
			case 10: // gossip merge, honest or lying
				minRate := 0.5
				weight := 0.25 + r.Float64()*0.5
				invert := r.Bool(0.3)
				if invert {
					s.MergeInverted(selfID, peer, minRate, weight)
				} else {
					s.MergePositive(selfID, peer, minRate, weight)
				}
				for id := range pm.req {
					if network.NodeID(id) == selfID {
						continue
					}
					fwd := pm.fwd[id]
					if invert {
						fwd = pm.req[id] - pm.fwd[id]
					}
					if float64(fwd)/float64(pm.req[id]) < minRate {
						continue
					}
					addReq := uint64(math.Round(float64(pm.req[id]) * weight))
					if addReq == 0 {
						addReq = 1
					}
					addFwd := uint64(math.Round(float64(fwd) * weight))
					if addFwd > addReq {
						addFwd = addReq
					}
					m.req[id] += addReq
					m.fwd[id] += addFwd
				}
			case 11: // generation reset (rare)
				if r.Bool(0.1) {
					s.Reset()
					m.reset()
				}
			}
			// Alternate between steps that check path ratings and steps
			// that go straight to the decision read path.
			checkAgainst(t, s, m, table, band, step%3 == 0)
		}
	}
}

// TestForgetUnknownAndOutOfRangeIsNoOp pins Forget's edge cases directly.
func TestForgetUnknownAndOutOfRangeIsNoOp(t *testing.T) {
	s := NewStoreSized(4)
	s.Observe(1, true)
	s.Forget(2)   // known range, never observed
	s.Forget(100) // beyond the store
	if s.KnownCount() != 1 || !s.Known(1) {
		t.Errorf("no-op forgets disturbed the store: known=%d", s.KnownCount())
	}
	s.Forget(1)
	if s.KnownCount() != 0 || s.Known(1) {
		t.Error("forget left the node known")
	}
	if rate := s.RatePaths([]network.Path{{Intermediates: []network.NodeID{1}}}, nil)[0]; rate != network.UnknownRate {
		t.Errorf("forgotten node's rate = %v, want UnknownRate", rate)
	}
	// Re-observation after forgetting starts from scratch.
	s.Observe(1, false)
	if rate, known := s.ForwardingRate(1); !known || rate != 0 {
		t.Errorf("re-observed node rate = %v/%v, want 0/true", rate, known)
	}
}

// TestForgetWhileDirtyDoesNotResurrect pins Forget right after fresh
// observations: the forgotten record must read as unknown on both the
// path-rating and the decision read paths.
func TestForgetWhileDirtyDoesNotResurrect(t *testing.T) {
	s := NewStoreSized(3)
	s.Observe(2, true)
	s.Observe(2, true)
	s.Forget(2)
	rates := s.RatePaths([]network.Path{{Intermediates: []network.NodeID{2}}}, nil)
	if rates[0] != network.UnknownRate {
		t.Errorf("forgotten entry resurrected rate %v", rates[0])
	}
	if level, _, known := s.Evaluate(2, DefaultTable(), DefaultActivityBand); known {
		t.Errorf("forgotten node still evaluates (level %v)", level)
	}
}
