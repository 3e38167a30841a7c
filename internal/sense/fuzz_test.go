package sense

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/fastfit/fastfit/internal/recfile"
)

// Fuzz corpora follow the core/dist loader fuzzers: seed with valid files,
// torn tails, interior corruption and garbage, then require the loaders to
// never panic — every failure must surface as a descriptive error.

func FuzzLoadFeatureStore(f *testing.F) {
	dir := f.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		f.Fatal(err)
	}
	recs := syntheticRecords("is", 3, 1)
	s.AddCampaign(Fingerprint("is", recs), recs)
	s.AddCampaign(Fingerprint("ft", recs), recs)
	s.Close()
	valid, err := os.ReadFile(filepath.Join(dir, StoreFileName))
	if err != nil {
		f.Fatal(err)
	}

	f.Add(valid)
	f.Add(valid[:len(valid)-5])     // torn tail
	f.Add(valid[5:])                // decapitated
	f.Add([]byte{})                 // empty
	f.Add([]byte("garbage\nlines")) // not the grammar at all
	corrupt := append([]byte{}, valid...)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt)
	hdr, _ := recfile.Marshal(storeHeader{Kind: "sense-store", Version: storeVersion + 9})
	f.Add(hdr)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), StoreFileName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		st, err := LoadStoreState(path)
		if err != nil {
			return
		}
		// A load that succeeded must have produced only valid records.
		for i, r := range st.Records {
			if err := r.validate(); err != nil {
				t.Fatalf("loaded invalid record %d: %v", i, err)
			}
		}
	})
}

func FuzzLoadModel(f *testing.F) {
	var recs []Record
	for i, app := range []string{"is", "ft"} {
		recs = append(recs, syntheticRecords(app, 10, int64(i))...)
	}
	m, err := Train(recs, TrainConfig{Seed: 1, Trees: 5, Depth: 4})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := m.encode()
	if err != nil {
		f.Fatal(err)
	}

	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // truncated
	f.Add(valid[5:])            // decapitated
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	corrupt := append([]byte{}, valid...)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "model.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		m, err := LoadModel(path)
		if err != nil {
			return
		}
		// A model that loaded must be servable: advising on arbitrary
		// features must not panic.
		a := NewAdvisor(m, AdvisorConfig{Gate: 0.5})
		a.Advise(Features{App: "fuzz", Ranks: 8, CollType: 1, NInv: 1, StackDepth: 1, NDiffStacks: 1})
	})
}
