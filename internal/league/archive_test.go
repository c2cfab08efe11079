package league

import (
	"testing"

	"adhocga/internal/jobstore"
)

func TestArchivePutGetListSelect(t *testing.T) {
	a := NewMemArchive()
	defer a.Close()
	if a.Backend() != "mem" {
		t.Fatalf("Backend() = %q, want mem", a.Backend())
	}
	// Put in non-sorted ID order so List (put order) and Select (sorted)
	// are distinguishable.
	cb := testChampion(t, "job-1/case 1/r0/g20", "1111111111111")
	ca := testChampion(t, "job-1/case 1/r0/g10", "0101011011111")
	for _, c := range []Champion{cb, ca} {
		if err := a.Put(c); err != nil {
			t.Fatal(err)
		}
	}
	if a.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", a.Len())
	}

	got, ok := a.Get(ca.ID)
	if !ok || got != ca {
		t.Fatalf("Get(%q) = %+v, %v", ca.ID, got, ok)
	}
	if _, ok := a.Get("nope"); ok {
		t.Fatal("Get accepted unknown ID")
	}

	list := a.List()
	if len(list) != 2 || list[0].ID != cb.ID || list[1].ID != ca.ID {
		t.Fatalf("List() order = %v, want put order [%s %s]", ids(list), cb.ID, ca.ID)
	}

	// Empty Select seats the whole archive sorted by ID — put-order
	// independent, which is what makes default league seating stable.
	sel, err := a.Select(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].ID != ca.ID || sel[1].ID != cb.ID {
		t.Fatalf("Select(nil) order = %v, want sorted [%s %s]", ids(sel), ca.ID, cb.ID)
	}
	sel, err = a.Select([]string{cb.ID})
	if err != nil || len(sel) != 1 || sel[0].ID != cb.ID {
		t.Fatalf("Select([%s]) = %v, %v", cb.ID, ids(sel), err)
	}
	if _, err := a.Select([]string{"missing"}); err == nil {
		t.Fatal("Select accepted unknown ID")
	}

	// Re-putting the same ID replaces, never duplicates.
	ca.Fitness = 9
	if err := a.Put(ca); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 2 {
		t.Fatalf("Len() after re-put = %d, want 2", a.Len())
	}
	if got, _ := a.Get(ca.ID); got.Fitness != 9 {
		t.Fatalf("re-put did not replace: Fitness = %v", got.Fitness)
	}

	if err := a.Put(Champion{ID: "bad", Genome: "xyz"}); err == nil {
		t.Fatal("Put accepted invalid champion")
	}
}

func TestArchiveRestart(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []Champion{
		testChampion(t, "job-1/case 1/r0/g0", "0000000000000"),
		testChampion(t, "job-1/case 1/r0/g10", "0101011011111"),
		testChampion(t, "job-1/case 1/r1/g10", "1111111111111"),
	}
	for _, c := range want {
		if err := a.Put(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Backend() != "file" {
		t.Fatalf("Backend() = %q, want file", b.Backend())
	}
	if b.Skipped() != 0 {
		t.Fatalf("Skipped() = %d, want 0", b.Skipped())
	}
	got := b.List()
	if len(got) != len(want) {
		t.Fatalf("reopened archive has %d champions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("champion %d changed across restart:\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestArchiveSkipsForeignAndCorrupt plants three bad records next to one
// good champion: a foreign kind, a champion record whose spec is garbage,
// and a well-formed envelope filed under the wrong record ID. Loading
// must keep the good one and count the rest, never fail.
func TestArchiveSkipsForeignAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, err := jobstore.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := testChampion(t, "job-1/case 1/r0/g10", "0101011011111")
	env, err := EncodeChampion(good)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []jobstore.Record{
		{ID: "job-9", Kind: "scenarios", Spec: []byte(`{"seed":1}`), State: jobstore.StateDone},
		// Valid JSON (the store rejects anything else at Put time) but a
		// broken envelope: the CRC cannot match an empty payload.
		{ID: "broken", Kind: RecordKind, Spec: []byte(`{"crc":"00000000","champion":{"id":"broken"}}`), State: jobstore.StateDone},
		{ID: "wrong-id", Kind: RecordKind, Spec: env, State: jobstore.StateDone},
		{ID: good.ID, Kind: RecordKind, Spec: env, State: jobstore.StateDone},
	} {
		if err := st.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	a, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", a.Len())
	}
	if a.Skipped() != 3 {
		t.Fatalf("Skipped() = %d, want 3", a.Skipped())
	}
	if _, ok := a.Get(good.ID); !ok {
		t.Fatalf("good champion %q lost among corrupt neighbors", good.ID)
	}
}

func ids(cs []Champion) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.ID
	}
	return out
}

// TestArchiveListingKeptBetweenPuts checks when renderings are made and
// dropped: none at load, each champion's on the first listing that shows
// it, and a Put drops only the replaced champion's rendering and the
// unfiltered body.
func TestArchiveListingKeptBetweenPuts(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ca := testChampion(t, "job-1/case 1/r0/g0", "0000000000000")
	cb := testChampion(t, "job-1/case 1/r0/g10", "1111111111111")
	for _, c := range []Champion{ca, cb} {
		if err := a.Put(c); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	if a, err = OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if len(a.rendered) != 0 || a.listing != nil {
		t.Fatalf("loading rendered %d champions (body kept: %v), want none", len(a.rendered), a.listing != nil)
	}

	if _, err := a.Listing("altruist", ""); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.rendered[cb.ID]; len(a.rendered) != 1 || !ok || a.listing != nil {
		t.Fatalf("filtered listing rendered %d champions (body kept: %v), want only %s", len(a.rendered), a.listing != nil, cb.ID)
	}
	body, err := a.Listing("", "")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := a.Listing("", ""); len(a.rendered) != 2 || &again[0] != &body[0] {
		t.Fatalf("unfiltered listing not kept: %d renderings, same body %v", len(a.rendered), &again[0] == &body[0])
	}
	kept := a.rendered[ca.ID]

	cb.Fitness = 7
	if err := a.Put(cb); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.rendered[cb.ID]; ok || a.listing != nil || &a.rendered[ca.ID][0] != &kept[0] {
		t.Fatalf("Put of %s kept its rendering or the body, or dropped %s's", cb.ID, ca.ID)
	}
}
