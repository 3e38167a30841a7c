package sense

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fastfit/fastfit/internal/recfile"
)

// syntheticRecords builds records for one app whose label follows a rule
// shared across apps — deep call stacks inside error-handling code crash,
// everything else succeeds — so a model trained on some apps genuinely
// transfers to the others.
func syntheticRecords(app string, n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	var out []Record
	for i := 0; i < n; i++ {
		f := Features{
			App:         app,
			Ranks:       8,
			CollType:    rng.Intn(4),
			Phase:       rng.Intn(4),
			ErrHandling: rng.Intn(2) == 1,
			IsRoot:      rng.Intn(2) == 1,
			NInv:        1 + rng.Intn(8),
			StackDepth:  1 + rng.Intn(6),
			NDiffStacks: 1 + rng.Intn(3),
		}
		dom := 0 // Success
		if f.ErrHandling && f.StackDepth >= 3 {
			dom = 3 // SegFault
		}
		counts := make([]int, Classes)
		counts[dom] = 10
		counts[(dom+1)%Classes] = 2
		out = append(out, Record{Features: f, Counts: counts, Trials: 12})
	}
	return out
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords("is", 10, 1)
	fp := Fingerprint("is", recs)
	added, err := s.AddCampaign(fp, recs)
	if err != nil {
		t.Fatal(err)
	}
	if added != 10 {
		t.Fatalf("added %d records, want 10", added)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Records()
	if len(got) != 10 {
		t.Fatalf("reloaded %d records, want 10", len(got))
	}
	for i := range got {
		if got[i].App != recs[i].App || got[i].Dominant() != recs[i].Dominant() || got[i].Trials != recs[i].Trials {
			t.Fatalf("record %d drifted: %+v vs %+v", i, got[i], recs[i])
		}
	}
	if apps := s2.Apps(); len(apps) != 1 || apps[0] != "is" {
		t.Fatalf("Apps() = %v", apps)
	}
	if s2.Campaigns() != 1 {
		t.Fatalf("Campaigns() = %d", s2.Campaigns())
	}
}

func TestStoreDedupByFingerprint(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := syntheticRecords("ft", 5, 2)
	fp := Fingerprint("ft", recs)
	if added, _ := s.AddCampaign(fp, recs); added != 5 {
		t.Fatalf("first ingest added %d", added)
	}
	// Re-ingesting the same campaign is a no-op.
	if added, _ := s.AddCampaign(fp, recs); added != 0 {
		t.Fatalf("duplicate ingest added %d records", added)
	}
	if len(s.Records()) != 5 {
		t.Fatalf("store holds %d records after duplicate ingest", len(s.Records()))
	}
	// A different campaign with the same app still lands.
	recs2 := syntheticRecords("ft", 3, 3)
	if added, _ := s.AddCampaign(Fingerprint("ft", recs2), recs2); added != 3 {
		t.Fatalf("second campaign added %d", added)
	}
	if s.Campaigns() != 2 {
		t.Fatalf("Campaigns() = %d", s.Campaigns())
	}
}

func TestStoreTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords("mg", 4, 4)
	if _, err := s.AddCampaign(Fingerprint("mg", recs), recs); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash mid-append: a partial line with no newline.
	path := filepath.Join(dir, StoreFileName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("00000042 deadbeef {\"kind\":\"rec")
	f.Close()

	st, err := LoadStoreState(path)
	if err != nil {
		t.Fatalf("torn tail must load: %v", err)
	}
	if !st.TornTail || len(st.Records) != 4 {
		t.Fatalf("TornTail=%v records=%d", st.TornTail, len(st.Records))
	}

	// Opening repairs the tail and the store accepts appends again.
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	more := syntheticRecords("lu", 2, 5)
	if added, err := s2.AddCampaign(Fingerprint("lu", more), more); err != nil || added != 2 {
		t.Fatalf("append after repair: added=%d err=%v", added, err)
	}
	s2.Close()

	st2, err := LoadStoreState(path)
	if err != nil {
		t.Fatal(err)
	}
	if st2.TornTail || len(st2.Records) != 6 {
		t.Fatalf("after repair+append: TornTail=%v records=%d", st2.TornTail, len(st2.Records))
	}
}

func TestStoreCorruptionNamesOffset(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords("is", 3, 6)
	if _, err := s.AddCampaign(Fingerprint("is", recs), recs); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := filepath.Join(dir, StoreFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the middle of the file — an interior line, not
	// the torn-tail position.
	mid := len(data) / 2
	corrupt := append([]byte{}, data...)
	corrupt[mid] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadStoreState(path)
	if err == nil {
		t.Fatal("interior corruption must be an error")
	}
	if !strings.Contains(err.Error(), "at offset") {
		t.Fatalf("corruption error must name the byte offset: %v", err)
	}
}

func TestStoreRefusals(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, StoreFileName)

	// Empty file.
	os.WriteFile(path, nil, 0o644)
	if _, err := LoadStoreState(path); err == nil || !strings.Contains(err.Error(), "empty file") {
		t.Fatalf("empty store error = %v", err)
	}

	// Missing header: a record line first.
	line, _ := recfile.Marshal(storeRecord{Kind: "record", Fingerprint: "x", Index: 0,
		Record: syntheticRecords("is", 1, 7)[0]})
	os.WriteFile(path, line, 0o644)
	if _, err := LoadStoreState(path); err == nil || !strings.Contains(err.Error(), "missing header") {
		t.Fatalf("headerless store error = %v", err)
	}

	// Future version.
	hdr, _ := recfile.Marshal(storeHeader{Kind: "sense-store", Version: storeVersion + 1})
	os.WriteFile(path, hdr, 0o644)
	if _, err := LoadStoreState(path); err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("future-version store error = %v", err)
	}

	// Unknown record kind.
	hdr, _ = recfile.Marshal(storeHeader{Kind: "sense-store", Version: storeVersion})
	junk, _ := recfile.Marshal(map[string]string{"kind": "mystery"})
	os.WriteFile(path, append(hdr, junk...), 0o644)
	if _, err := LoadStoreState(path); err == nil || !strings.Contains(err.Error(), "unknown record kind") {
		t.Fatalf("unknown-kind store error = %v", err)
	}

	// Malformed record payload: tallies of the wrong width.
	bad, _ := recfile.Marshal(storeRecord{Kind: "record", Fingerprint: "x", Index: 0,
		Record: Record{Features: Features{App: "is"}, Counts: []int{1, 2}, Trials: 3}})
	os.WriteFile(path, append(hdr, bad...), 0o644)
	if _, err := LoadStoreState(path); err == nil || !strings.Contains(err.Error(), "tallies 2 classes") {
		t.Fatalf("bad-record store error = %v", err)
	}
}

func TestFingerprintStability(t *testing.T) {
	recs := syntheticRecords("is", 5, 8)
	if Fingerprint("is", recs) != Fingerprint("is", recs) {
		t.Fatal("fingerprint must be deterministic")
	}
	if Fingerprint("is", recs) == Fingerprint("ft", recs) {
		t.Fatal("fingerprint must depend on the app")
	}
	other := syntheticRecords("is", 5, 9)
	if Fingerprint("is", recs) == Fingerprint("is", other) {
		t.Fatal("fingerprint must depend on the records")
	}
}

func TestRecordValidate(t *testing.T) {
	good := syntheticRecords("is", 1, 10)[0]
	if err := good.validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(r *Record)
		want string
	}{
		{"no-app", func(r *Record) { r.App = "" }, "no app id"},
		{"short-counts", func(r *Record) { r.Counts = r.Counts[:2] }, "tallies 2 classes"},
		{"negative", func(r *Record) { r.Counts[0] = -1 }, "negative"},
		{"trials-mismatch", func(r *Record) { r.Trials++ }, "tallies sum to"},
	}
	for _, tc := range cases {
		r := good
		r.Counts = append([]int{}, good.Counts...)
		tc.mut(&r)
		if err := r.validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: validate = %v, want %q", tc.name, err, tc.want)
		}
	}
	empty := Record{Features: Features{App: "is"}, Counts: make([]int, Classes)}
	if err := empty.validate(); err == nil || !strings.Contains(err.Error(), "no trials") {
		t.Errorf("zero-trial record: validate = %v", err)
	}
}

func TestDominantTieBreak(t *testing.T) {
	counts := make([]int, Classes)
	counts[0], counts[3] = 5, 5
	r := Record{Counts: counts}
	// Lowest class index wins ties — the same rule as MajorityOutcome.
	if r.Dominant() != 0 {
		t.Fatalf("Dominant() = %d, want 0 on a tie", r.Dominant())
	}
}
