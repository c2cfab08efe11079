// Package game implements the Ad Hoc Network Game of §4: one node
// originates a packet, the intermediate nodes on the chosen route decide in
// order whether to forward or discard it, and every participant that saw
// the packet receives a payoff and updates its reputation memory.
//
// The packet itself is never materialized — the game is about decisions,
// payoffs and reputation, exactly as in the paper's model.
package game

import (
	"fmt"

	"adhocga/internal/network"
	"adhocga/internal/strategy"
	"adhocga/internal/trust"
)

// NodeType distinguishes the player types: the paper's two (§4.3) plus
// the Byzantine adversaries of the dynamics extension.
type NodeType uint8

const (
	// Normal nodes play an evolvable strategy and want both to send
	// packets and to save battery.
	Normal NodeType = iota
	// Selfish nodes (the paper's CSN, "constantly selfish nodes") never
	// forward and are excluded from selection and reproduction.
	Selfish
	// Byzantine nodes run a fixed adversarial behavior (see Adversary)
	// beyond plain selfishness: lying in gossip, on-off attacking, or
	// free-riding. Like CSN they participate in tournaments but never in
	// selection or reproduction.
	Byzantine
)

// String returns "normal", "selfish", or "byzantine".
func (t NodeType) String() string {
	switch t {
	case Selfish:
		return "selfish"
	case Byzantine:
		return "byzantine"
	default:
		return "normal"
	}
}

// Adversary identifies the Byzantine behavior a player runs; AdvNone for
// normal and plain-selfish players. The behaviors themselves live in
// internal/dynamics (strategy scheduling) and internal/tournament (gossip
// lying) — the game package only carries the tag so the hot path stays a
// plain strategy lookup.
type Adversary uint8

const (
	// AdvNone marks a non-adversarial player.
	AdvNone Adversary = iota
	// AdvFreeRider sources packets like everyone else but never forwards
	// (its strategy is pinned to AllDiscard). Unlike CSN, free-riders are
	// part of the dynamics cohort present in every environment.
	AdvFreeRider
	// AdvLiar forwards reliably to keep its own reputation high, but
	// injects inverted observations when chosen as a gossip peer
	// (trust.MergeInverted).
	AdvLiar
	// AdvOnOff alternates between a forwarding phase (building trust) and
	// a discarding phase, on a fixed round schedule driven by the dynamics
	// layer through the tournament's RoundDriver hook.
	AdvOnOff
)

// String returns the adversary kind's short name.
func (a Adversary) String() string {
	switch a {
	case AdvFreeRider:
		return "free-rider"
	case AdvLiar:
		return "liar"
	case AdvOnOff:
		return "on-off"
	default:
		return "none"
	}
}

// PayoffTable holds the two payoff tables of Fig 2a. Forward and Discard
// are indexed by the deciding node's trust level in the packet's source.
type PayoffTable struct {
	SourceSuccess float64 // source payoff when the packet is delivered ("S")
	SourceFailure float64 // source payoff when any intermediate drops ("F")
	Forward       [strategy.NumTrustLevels]float64
	Discard       [strategy.NumTrustLevels]float64
}

// DefaultPayoffs returns the reproduction's reading of Fig 2a (see
// DESIGN.md §3 for the reconstruction of the garbled scan): forwarding
// pays more for more trusted sources (0.3/0.5/1/2 for trust 0..3), and
// discarding pays most for barely-trusted sources (2/3/1/0.5).
func DefaultPayoffs() PayoffTable {
	return PayoffTable{
		SourceSuccess: 5,
		SourceFailure: 0,
		Forward:       [strategy.NumTrustLevels]float64{0.3, 0.5, 1.0, 2.0},
		Discard:       [strategy.NumTrustLevels]float64{2.0, 3.0, 1.0, 0.5},
	}
}

// NoReputationPayoffs returns the counterfactual table the paper describes
// in §4.2: "If such system was not used, the payoff for selfish behavior
// (discarding packets) would always be higher than for forwarding." It is
// used by the ablation benchmark to show cooperation collapsing.
func NoReputationPayoffs() PayoffTable {
	return PayoffTable{
		SourceSuccess: 5,
		SourceFailure: 0,
		Forward:       [strategy.NumTrustLevels]float64{0.3, 0.5, 1.0, 2.0},
		Discard:       [strategy.NumTrustLevels]float64{3.0, 3.0, 3.0, 3.0},
	}
}

// Validate checks structural sanity: no negative payoffs, success paying
// at least failure, and forwarding payoff non-decreasing in trust (the
// §4.2 design property "the higher the trust level is the higher payoff").
func (p PayoffTable) Validate() error {
	if p.SourceSuccess < p.SourceFailure {
		return fmt.Errorf("game: source success payoff %v below failure payoff %v", p.SourceSuccess, p.SourceFailure)
	}
	for i := 0; i < strategy.NumTrustLevels; i++ {
		if p.Forward[i] < 0 || p.Discard[i] < 0 {
			return fmt.Errorf("game: negative payoff at trust level %d", i)
		}
		if i > 0 && p.Forward[i] < p.Forward[i-1] {
			return fmt.Errorf("game: forward payoff must be non-decreasing in trust, got %v", p.Forward)
		}
	}
	return nil
}

// Config bundles the rule parameters of the game.
type Config struct {
	Payoffs PayoffTable
	// TrustTable maps forwarding rates to trust levels (Fig 1b).
	TrustTable trust.Table
	// UnknownTrust is the trust level used for the payoff of a decision
	// about an unknown source; the paper sets it to 1 (§6.1). The
	// *decision* for unknown sources always comes from strategy bit 12.
	UnknownTrust strategy.TrustLevel
	// ActivityBand is the ± fraction around the mean that counts as
	// medium activity (§3.2; the paper uses 0.2).
	ActivityBand float64
	// BlindDecisions, when true, hides all reputation data from the
	// forwarding decision: every source looks unknown, so only strategy
	// bit 12 applies and payoffs are priced at UnknownTrust. Combined
	// with random path choice this is the paper's §4.2 counterfactual —
	// a network with no reputation system, where selfishness goes
	// unnoticed. Ablation use only.
	BlindDecisions bool
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		Payoffs:      DefaultPayoffs(),
		TrustTable:   trust.DefaultTable(),
		UnknownTrust: strategy.Trust1,
		ActivityBand: trust.DefaultActivityBand,
	}
}

// Validate checks the full configuration.
func (c Config) Validate() error {
	if err := c.Payoffs.Validate(); err != nil {
		return err
	}
	if err := c.TrustTable.Validate(); err != nil {
		return err
	}
	if !c.UnknownTrust.Valid() {
		return fmt.Errorf("game: invalid unknown-trust level %d", c.UnknownTrust)
	}
	if c.ActivityBand < 0 || c.ActivityBand >= 1 {
		return fmt.Errorf("game: activity band %v outside [0,1)", c.ActivityBand)
	}
	return nil
}

// Account accumulates a player's payoffs, split by origin as in the
// fitness function (eq. 1): tps from sourcing packets, tpf from
// forwarding, tpd from discarding; Events is ne.
type Account struct {
	SourcePayoff  float64
	ForwardPayoff float64
	DiscardPayoff float64
	Events        int
	// Decision counters, kept for diagnostics (not part of eq. 1).
	Sent, Delivered, Forwards, Discards int
}

// Fitness returns eq. 1: (tps + tpf + tpd) / ne, or 0 for a player with no
// events (it cannot be compared, and 0 keeps it out of the winners).
func (a *Account) Fitness() float64 {
	if a.Events == 0 {
		return 0
	}
	return (a.SourcePayoff + a.ForwardPayoff + a.DiscardPayoff) / float64(a.Events)
}

// Reset zeroes the account for a new generation.
func (a *Account) Reset() { *a = Account{} }

// Player is one network participant: an identity, a type, a strategy, a
// private reputation memory and a payoff account.
type Player struct {
	ID       network.NodeID
	Type     NodeType
	Adv      Adversary // AdvNone unless Type is Byzantine
	Strategy strategy.Strategy
	Rep      *trust.Store
	Acct     Account
}

// NewNormal returns a normal player with the given strategy.
func NewNormal(id network.NodeID, s strategy.Strategy) *Player {
	return &Player{ID: id, Type: Normal, Strategy: s, Rep: trust.NewStore()}
}

// NewSelfish returns a constantly selfish player; its strategy is pinned
// to AllDiscard.
func NewSelfish(id network.NodeID) *Player {
	return &Player{ID: id, Type: Selfish, Strategy: strategy.AllDiscard(), Rep: trust.NewStore()}
}

// NewByzantine returns a Byzantine player running the given adversarial
// behavior with the given (fixed, non-evolving) base strategy. The
// dynamics layer constructs these and may swap the strategy at round
// boundaries (on-off attacks).
func NewByzantine(id network.NodeID, adv Adversary, s strategy.Strategy) *Player {
	return &Player{ID: id, Type: Byzantine, Adv: adv, Strategy: s, Rep: trust.NewStore()}
}

// ResetForGeneration clears reputation memory and the payoff account, as
// the evaluation scheme requires at the start of each generation.
func (p *Player) ResetForGeneration() {
	p.Rep.Reset()
	p.Acct.Reset()
}

// Decide returns the player's forwarding decision about a packet from src,
// together with the trust level that prices the decision in the payoff
// table. Unknown sources are decided by strategy bit 12 and priced at
// cfg.UnknownTrust.
//
// The trust level is cfg.TrustTable applied to the source's forwarding
// rate, computed from the store's counters in a single dense lookup; the
// store holds no table of its own, so any table applies without wiring.
func (p *Player) Decide(src network.NodeID, cfg *Config) (strategy.Decision, strategy.TrustLevel) {
	if cfg.BlindDecisions {
		return p.Strategy.DecideUnknown(), cfg.UnknownTrust
	}
	tl, act, known := p.Rep.Evaluate(src, cfg.TrustTable, cfg.ActivityBand)
	if !known {
		return p.Strategy.DecideUnknown(), cfg.UnknownTrust
	}
	return p.Strategy.Decide(tl, act), tl
}

// Recorder observes completed games; the metrics package implements it.
// The inters slice is only valid during the call.
type Recorder interface {
	// RecordGame is called once per game with the source, the
	// intermediates of the chosen path in order, and the index of the
	// first dropper within inters (-1 when the packet was delivered).
	RecordGame(src *Player, inters []*Player, firstDrop int)
}

// Play runs one game: the source src sends a packet along the given
// intermediates. Decisions, payoffs, reputation updates, and the optional
// Recorder notification all happen here. It reports whether the packet was
// delivered.
//
// Reputation semantics (Fig 1a, pinned down in DESIGN.md): on success,
// every participant observes every intermediate (except itself) as having
// forwarded. On a drop at index k, the source and the intermediates before
// the dropper observe intermediates 0..k (forwarded for j<k, dropped for
// j==k); nodes after the dropper never saw the packet and learn nothing;
// the dropper itself propagates the alert but records no observations, as
// in the figure.
func Play(src *Player, inters []*Player, cfg *Config, rec Recorder) bool {
	var idbuf [network.MaxHops - 1]network.NodeID
	var ids []network.NodeID
	if len(inters) <= len(idbuf) {
		ids = idbuf[:len(inters)]
	} else {
		ids = make([]network.NodeID, len(inters))
	}
	for i, p := range inters {
		ids[i] = p.ID
	}
	return PlayIDs(src, inters, ids, cfg, rec)
}

// PlayIDs is Play for callers that already hold the intermediates' IDs —
// the tournament passes the chosen path's Intermediates directly, which
// skips re-gathering IDs from the players on every game.
// ids[i] must equal inters[i].ID.
func PlayIDs(src *Player, inters []*Player, ids []network.NodeID, cfg *Config, rec Recorder) bool {
	firstDrop := -1
	for i, node := range inters {
		dec, tl := node.Decide(src.ID, cfg)
		if dec == strategy.Forward {
			node.Acct.ForwardPayoff += cfg.Payoffs.Forward[tl]
			node.Acct.Events++
			node.Acct.Forwards++
			continue
		}
		node.Acct.DiscardPayoff += cfg.Payoffs.Discard[tl]
		node.Acct.Events++
		node.Acct.Discards++
		firstDrop = i
		break
	}
	delivered := firstDrop == -1

	src.Acct.Events++
	src.Acct.Sent++
	if delivered {
		src.Acct.SourcePayoff += cfg.Payoffs.SourceSuccess
		src.Acct.Delivered++
	} else {
		src.Acct.SourcePayoff += cfg.Payoffs.SourceFailure
	}

	// Reputation updates: bulk observation runs over the dense stores
	// (allocation-free in steady state — no closure, no map inserts, one
	// store call per observer). Within 0..last, "forwarded" is simply
	// j != firstDrop: on success firstDrop is -1, and on a drop
	// last == firstDrop so only the dropper itself is observed as
	// dropping. ObservePath skips the observer's own entry.
	last := len(inters) - 1 // last intermediate that received the packet
	if !delivered {
		last = firstDrop
	}
	src.Rep.ObservePath(ids[:last+1], src.ID, firstDrop)
	upTo := last // on success, every intermediate observes
	if !delivered {
		upTo = firstDrop - 1 // the dropper records nothing
	}
	for i := 0; i <= upTo; i++ {
		inters[i].Rep.ObservePath(ids[:last+1], inters[i].ID, firstDrop)
	}

	if rec != nil {
		rec.RecordGame(src, inters, firstDrop)
	}
	return delivered
}
