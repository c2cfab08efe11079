package league

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"adhocga/internal/jobstore"
)

// RecordKind tags champion records in a jobstore so the archive can
// coexist with (and be distinguished from) job records.
const RecordKind = "champion"

// Archive is the hall of fame: a set of champions kept in memory for
// queries and written through to a jobstore.Store so they survive
// restarts. Champions ride the store's existing WAL machinery — framing,
// per-line checksums, torn-tail repair, compaction — as Kind "champion"
// records whose Spec is the self-checking codec envelope. The archive
// should own its store (a dedicated directory for the file backend); it
// is not designed to share one with the service's job records.
//
// All methods are safe for concurrent use.
type Archive struct {
	store jobstore.Store

	mu      sync.Mutex
	byID    map[string]Champion
	order   []string // first-Put order, mirrors the store's List order
	skipped int      // corrupt records dropped while loading

	// The rendered listing (see Listing): each champion's JSON, made on
	// the first listing that shows it and dropped when a Put replaces it,
	// and the whole unfiltered body, nil until read and after any Put.
	rendered map[string][]byte
	listing  []byte
}

// NewArchive wraps a store, loading every existing champion record.
// Records that fail to decode (corruption that slipped past the WAL's
// own checksums, or foreign kinds) are skipped and counted, never fatal:
// a damaged champion must not take down the rest of the hall of fame.
func NewArchive(store jobstore.Store) (*Archive, error) {
	a := &Archive{store: store, byID: make(map[string]Champion), rendered: make(map[string][]byte)}
	recs, err := store.List()
	if err != nil {
		return nil, fmt.Errorf("league: load archive: %w", err)
	}
	for _, rec := range recs {
		if rec.Kind != RecordKind {
			a.skipped++
			continue
		}
		c, err := DecodeChampion(rec.Spec)
		if err != nil || c.ID != rec.ID {
			a.skipped++
			continue
		}
		a.byID[c.ID] = c
		a.order = append(a.order, c.ID)
	}
	return a, nil
}

// OpenDir opens (or creates) a file-backed archive in dir.
func OpenDir(dir string) (*Archive, error) {
	st, err := jobstore.OpenFile(dir)
	if err != nil {
		return nil, fmt.Errorf("league: open archive: %w", err)
	}
	a, err := NewArchive(st)
	if err != nil {
		st.Close()
		return nil, err
	}
	return a, nil
}

// NewMemArchive returns an archive over an in-memory store, for sessions
// that want checkpoints without durability.
func NewMemArchive() *Archive {
	a, _ := NewArchive(jobstore.NewMem()) // Mem.List never fails on empty
	return a
}

// Put validates, encodes, and persists a champion. Re-putting the same ID
// replaces the record (champion IDs are deterministic in their
// provenance, so a recovered job overwrites itself with identical bytes
// rather than duplicating).
func (a *Archive) Put(c Champion) error {
	env, err := EncodeChampion(c)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.store.Put(jobstore.Record{
		ID:    c.ID,
		Kind:  RecordKind,
		Spec:  env,
		Seed:  c.Seed,
		State: jobstore.StateDone,
	}); err != nil {
		return fmt.Errorf("league: archive put %s: %w", c.ID, err)
	}
	if _, ok := a.byID[c.ID]; !ok {
		a.order = append(a.order, c.ID)
	}
	a.byID[c.ID] = c
	delete(a.rendered, c.ID)
	a.listing = nil
	return nil
}

// Get returns the champion with the given ID.
func (a *Archive) Get(id string) (Champion, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c, ok := a.byID[id]
	return c, ok
}

// List returns all champions in first-Put order (archival order, which is
// checkpoint order within a job). The slice is the caller's to keep.
func (a *Archive) List() []Champion {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Champion, 0, len(a.order))
	for _, id := range a.order {
		out = append(out, a.byID[id])
	}
	return out
}

// listingIndent is the depth of a champion object in the listing body:
// inside the top-level object, inside the "champions" array.
const listingIndent = "    "

// Listing returns the body of the champion listing: the champions whose
// Category and Job match category and job ("" matches any), in first-Put
// order. The bytes are exactly what encoding/json's Encoder with two-space
// indentation writes for {"archive": Backend(), "champions": [...],
// "count": n}: sorted keys, "champions": [] when nothing matches, HTML
// escaped strings and a trailing newline.
//
// The listing is rendered once per archive change, not per call. Archive
// content changes only through Put and order is first-Put order, so a
// champion's rendering stays valid until a Put replaces it, and the
// unfiltered body until any Put; a filtered listing concatenates the kept
// renderings. Nothing is rendered before the first call. The returned bytes
// are shared and must not be modified.
func (a *Archive) Listing(category, job string) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	all := category == "" && job == ""
	if all && a.listing != nil {
		return a.listing, nil
	}
	type part struct {
		id   string
		json []byte
	}
	parts := make([]part, 0, len(a.order))
	size := 0
	for _, id := range a.order {
		c := a.byID[id]
		if (category != "" && c.Category != category) || (job != "" && c.Job != job) {
			continue
		}
		r, ok := a.rendered[id]
		if !ok {
			var err error
			if r, err = json.MarshalIndent(c, listingIndent, "  "); err != nil {
				return nil, fmt.Errorf("league: render champion %s: %w", id, err)
			}
			a.rendered[id] = r
		}
		parts = append(parts, part{id, r})
		size += len(",\n"+listingIndent) + len(r)
	}
	// A string always encodes; 80 bytes cover the framing and the count.
	backend, _ := json.Marshal(a.store.Backend())
	b := make([]byte, 0, size+len(backend)+80)
	b = append(b, "{\n  \"archive\": "...)
	b = append(b, backend...)
	b = append(b, ",\n  \"champions\": ["...)
	for i, p := range parts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n"+listingIndent...)
		start := len(b)
		b = append(b, p.json...)
		if all {
			// Point the kept rendering at its copy in the kept body, so
			// the archive holds each rendered byte once.
			a.rendered[p.id] = b[start:len(b):len(b)]
		}
	}
	if len(parts) > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "],\n  \"count\": "...)
	b = strconv.AppendInt(b, int64(len(parts)), 10)
	b = append(b, "\n}\n"...)
	if all {
		a.listing = b
	}
	return b, nil
}

// Select resolves champion IDs to champions. An empty ids slice selects
// the whole archive sorted by ID — a stable, store-order-independent
// default for league seating. Unknown IDs are an error, so a league over
// a mistyped champion fails loudly instead of silently shrinking.
func (a *Archive) Select(ids []string) ([]Champion, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(ids) == 0 {
		ids = make([]string, len(a.order))
		copy(ids, a.order)
		sort.Strings(ids)
	}
	out := make([]Champion, 0, len(ids))
	for _, id := range ids {
		c, ok := a.byID[id]
		if !ok {
			return nil, fmt.Errorf("league: unknown champion %q", id)
		}
		out = append(out, c)
	}
	return out, nil
}

// Len reports the number of archived champions.
func (a *Archive) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.byID)
}

// Skipped reports how many store records were dropped as corrupt or
// foreign while loading.
func (a *Archive) Skipped() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.skipped
}

// Backend names the underlying store's backend ("mem", "file").
func (a *Archive) Backend() string { return a.store.Backend() }

// Close releases the underlying store.
func (a *Archive) Close() error { return a.store.Close() }
