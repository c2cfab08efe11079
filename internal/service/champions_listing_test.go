package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"adhocga"
	"adhocga/internal/league"
)

// The champion listing is served from renderings the archive keeps between
// Puts. These tests pin it byte for byte to the reflective encoding the
// handler used to run on every request: writeJSON over the filtered
// champions, their count and the backend name.

// listingChampion builds a valid champion; the genome picks its category.
func listingChampion(t testing.TB, job, scenario string, gen int, genome string, fitness float64) league.Champion {
	t.Helper()
	c := league.Champion{
		ID:          league.ChampionID(job, scenario, 0, gen),
		Job:         job,
		Scenario:    scenario,
		Generation:  gen,
		Genome:      genome,
		Seed:        uint64(gen)*7919 + 1,
		Fitness:     fitness,
		MeanFitness: fitness / 3,
		Cooperation: 0.125 * float64(gen%8),
	}
	if err := c.Fill(); err != nil {
		t.Fatal(err)
	}
	return c
}

// reflectiveListing renders the listing the way the handler did before the
// archive kept it: filter the archive's List, then writeJSON a map.
func reflectiveListing(arch *league.Archive, category, job string) []byte {
	out := make([]league.Champion, 0)
	for _, c := range arch.List() {
		if (category == "" || c.Category == category) && (job == "" || c.Job == job) {
			out = append(out, c)
		}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{
		"champions": out,
		"count":     len(out),
		"archive":   arch.Backend(),
	})
	return rec.Body.Bytes()
}

// newListingServer builds a service over arch without an HTTP listener.
func newListingServer(t testing.TB, arch *league.Archive) *Server {
	t.Helper()
	session := adhocga.NewSession()
	t.Cleanup(session.Close)
	return New(session, Options{Champions: arch})
}

// serveListing runs GET /v1/champions with the given filters through the
// handler and returns the body, failing on anything but a JSON 200.
func serveListing(t testing.TB, s *Server, category, job string) []byte {
	t.Helper()
	q := url.Values{}
	if category != "" {
		q.Set("category", category)
	}
	if job != "" {
		q.Set("job", job)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/champions?"+q.Encode(), nil))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("GET /v1/champions?%s: %d %q %s", q.Encode(), rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
	return rec.Body.Bytes()
}

// listingFilters are the filter combinations every check runs: none, each
// filter alone, both together, and filters that match nothing.
var listingFilters = []struct{ category, job string }{
	{"", ""},
	{"reciprocal", ""},
	{"altruist", ""},
	{"", "job-1"},
	{"", "job-<2>&co"},
	{"reciprocal", "job-1"},
	{"defector", "job-1"},
	{"no-such-category", ""},
	{"", "no-such-job"},
}

// checkListing compares every filtered listing against the reflective
// rendering, twice, so both the first (rendering) and a later (kept) read
// are checked.
func checkListing(t *testing.T, s *Server, arch *league.Archive, when string) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		for _, f := range listingFilters {
			got := serveListing(t, s, f.category, f.job)
			if want := reflectiveListing(arch, f.category, f.job); !bytes.Equal(got, want) {
				t.Fatalf("%s, pass %d, category=%q job=%q:\ngot:\n%s\nwant:\n%s", when, pass, f.category, f.job, got, want)
			}
		}
	}
}

// listingSequence is a Put sequence over two jobs and several categories,
// with scenario and job names that need HTML escaping.
func listingSequence(t testing.TB) []league.Champion {
	return []league.Champion{
		listingChampion(t, "job-1", "case 1", 0, "1111111111111", 1.5),
		listingChampion(t, "job-1", "case 1", 5, "0000001111111", 2.25),
		listingChampion(t, "job-<2>&co", "a<b & c>d", 3, "0000000000000", 0.1),
		listingChampion(t, "job-1", "<script>&amp;", 9, "0101011011111", 3.0/7),
		listingChampion(t, "job-<2>&co", "case 4", 1, "0000001111111", 1e-9),
	}
}

func TestChampionsListingByteIdentical(t *testing.T) {
	arch := league.NewMemArchive()
	s := newListingServer(t, arch)
	checkListing(t, s, arch, "empty archive")

	seq := listingSequence(t)
	for i, c := range seq {
		if err := arch.Put(c); err != nil {
			t.Fatal(err)
		}
		checkListing(t, s, arch, fmt.Sprintf("after put %d (%s)", i, c.ID))
	}

	// Replace an existing ID with different fields, including its
	// category: the champion keeps its place and the listing shows the
	// new fields.
	repl := listingChampion(t, "job-1", "case 1", 5, "0000000000000", 9.75)
	if repl.ID != seq[1].ID || repl.Category == seq[1].Category {
		t.Fatalf("replacement %s (%s) does not replace %s (%s)", repl.ID, repl.Category, seq[1].ID, seq[1].Category)
	}
	if err := arch.Put(repl); err != nil {
		t.Fatal(err)
	}
	checkListing(t, s, arch, "after replacing "+repl.ID)
	if got := serveListing(t, s, "", ""); !bytes.Contains(got, []byte(`"fitness": 9.75`)) || bytes.Contains(got, []byte(`"fitness": 2.25`)) {
		t.Fatalf("listing after replacement still shows the old fields:\n%s", got)
	}
	// Re-putting identical bytes (crash recovery re-archiving a job) is
	// also a Put.
	if err := arch.Put(repl); err != nil {
		t.Fatal(err)
	}
	checkListing(t, s, arch, "after re-putting "+repl.ID)
}

func TestChampionsListingReopenedArchive(t *testing.T) {
	dir := t.TempDir()
	arch, err := league.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seq := listingSequence(t)
	for _, c := range seq {
		if err := arch.Put(c); err != nil {
			t.Fatal(err)
		}
	}
	before := serveListing(t, newListingServer(t, arch), "", "")
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := league.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reopened.Close() })
	s := newListingServer(t, reopened)
	checkListing(t, s, reopened, "reopened archive")
	if after := serveListing(t, s, "", ""); !bytes.Equal(after, before) {
		t.Fatalf("listing changed across reopen:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if err := reopened.Put(listingChampion(t, "job-3", "case 2", 2, "1111111111111", 4)); err != nil {
		t.Fatal(err)
	}
	checkListing(t, s, reopened, "put after reopen")
}

// TestChampionsListingConcurrentPut lists while another goroutine puts:
// every listing must be the exact rendering of some prefix of the Put
// sequence, never a torn or stale mix. Run under -race.
func TestChampionsListingConcurrentPut(t *testing.T) {
	arch := league.NewMemArchive()
	s := newListingServer(t, arch)

	var seq []league.Champion
	genomes := []string{"1111111111111", "0101011011111", "0000000000000", "0000001111111"}
	for i := 0; i < 40; i++ {
		seq = append(seq, listingChampion(t, fmt.Sprintf("job-%d", i%3), "case <&>", i, genomes[i%len(genomes)], float64(i)/3))
	}
	// The reflective rendering of every prefix, from an archive that is
	// filled alongside.
	ref := league.NewMemArchive()
	valid := map[string]bool{}
	for i := 0; ; i++ {
		valid[string(reflectiveListing(ref, "", ""))] = true
		valid[string(reflectiveListing(ref, "", "job-1"))] = true
		if i == len(seq) {
			break
		}
		if err := ref.Put(seq[i]); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, job := range []string{"", "job-1"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/champions?job="+job, nil))
				if !valid[rec.Body.String()] {
					t.Errorf("listing (job=%q) is no prefix of the Put sequence:\n%s", job, rec.Body)
					return
				}
			}
		}()
	}
	for _, c := range seq {
		if err := arch.Put(c); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	checkListing(t, s, arch, "after concurrent puts")
}

// discardResponse is a ResponseWriter that drops the body, so the
// benchmark times the handler and not a recorder's buffer.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// BenchmarkChampionsListing times GET /v1/champions through the handler
// on an archive of 100 and 1,000 champions, after the first read has
// rendered it: the whole listing, and one filtered by category (about a
// quarter of the archive).
func BenchmarkChampionsListing(b *testing.B) {
	genomes := []string{"1111111111111", "0101011011111", "0000000000000", "0000001111111"}
	for _, n := range []int{100, 1000} {
		arch := league.NewMemArchive()
		for i := 0; i < n; i++ {
			c := listingChampion(b, fmt.Sprintf("job-%d", i/10), "csn-grid CSN=10 (LP)", i%10, genomes[i%len(genomes)], float64(i)/7)
			if err := arch.Put(c); err != nil {
				b.Fatal(err)
			}
		}
		s := newListingServer(b, arch)
		for _, q := range []struct{ name, query string }{{"all", ""}, {"category", "category=reciprocal"}} {
			b.Run(fmt.Sprintf("champions=%d/%s", n, q.name), func(b *testing.B) {
				req := httptest.NewRequest(http.MethodGet, "/v1/champions?"+q.query, nil)
				w := &discardResponse{h: http.Header{}}
				s.ServeHTTP(w, req) // the first read renders; time the kept listing
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.ServeHTTP(w, req)
				}
			})
		}
	}
}
