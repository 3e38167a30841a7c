package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

// fuzzFingerprint is the fingerprint the fuzz targets validate against.
// Any header carrying a different one must produce ErrCheckpointMismatch,
// never a panic or a silently merged state.
const fuzzFingerprint = "00000000deadbeef"

const fuzzHeader = `{"kind":"header","version":2,"fingerprint":"` + fuzzFingerprint + `","app":"is","ranks":8,"totalPoints":4}`

// fuzzJournal builds a well-formed framed journal with the given point
// records so the corpus starts from inputs that exercise the full decode
// path.
func fuzzJournal(records ...string) []byte {
	return framedJournal(append([]string{fuzzHeader}, records...)...)
}

const fuzzPointRecord = `{"kind":"point","index":0,"result":{"point":{"rank":1,"site":7,"siteName":"allreduce","collType":2,"invocation":3,"stackHash":9,"phase":1,"errHandling":false,"isRoot":false,"nInv":4,"stackDepth":2,"nDiffStacks":1},"trials":[{"target":0,"bit":3,"outcome":0},{"target":1,"bit":9,"outcome":2}]},"baseTrials":2}`

// FuzzLoadCheckpoint: the journal loader must never panic on arbitrary
// bytes — torn tails, duplicate indices, out-of-range enums, wrong
// fingerprints and garbage must all surface as descriptive errors (or a
// tolerated torn tail), never as a crash.
func FuzzLoadCheckpoint(f *testing.F) {
	// Valid journal with one point and one quarantine record.
	f.Add(fuzzJournal(fuzzPointRecord,
		`{"kind":"quarantine","index":1,"point":{"rank":0,"siteName":"bcast"},"attempts":2,"error":"wedged"}`))
	// Torn tail: crash mid-append.
	valid := fuzzJournal(fuzzPointRecord)
	f.Add(valid[:len(valid)-10])
	// Duplicate index (refined record, last-wins).
	f.Add(fuzzJournal(fuzzPointRecord, fuzzPointRecord))
	// Wrong fingerprint.
	f.Add(framedJournal(strings.Replace(fuzzHeader, fuzzFingerprint, "ffffffffffffffff", 1)))
	// Unsupported versions: a future one, and an unframed version-1 file.
	f.Add(framedJournal(strings.Replace(fuzzHeader, `"version":2`, `"version":99`, 1)))
	f.Add([]byte(strings.Replace(fuzzHeader, `"version":2`, `"version":1`, 1) + "\n" + fuzzPointRecord + "\n"))
	// Out-of-range outcome enum, negative baseTrials, negative index.
	f.Add(fuzzJournal(`{"kind":"point","index":0,"result":{"point":{},"trials":[{"target":0,"bit":0,"outcome":999}]}}`))
	f.Add(fuzzJournal(`{"kind":"point","index":0,"result":{"point":{},"trials":[]},"baseTrials":-1}`))
	// A point-to-point target has no place in a collective point's record.
	f.Add(fuzzJournal(strings.Replace(fuzzPointRecord, `"target":1,`, `"target":11,`, 1)))
	f.Add(fuzzJournal(strings.Replace(fuzzPointRecord, `"index":0`, `"index":-3`, 1)))
	// Interior corruption: a flipped payload byte under an intact frame.
	flipped := fuzzJournal(fuzzPointRecord, fuzzPointRecord)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	// Missing header, unknown kind, plain garbage, empty file.
	f.Add(framedJournal(fuzzPointRecord))
	f.Add(fuzzJournal(`{"kind":"gremlin"}`))
	f.Add([]byte("not json at all\n"))
	f.Add([]byte{})
	f.Add([]byte("\x00\x01\x02"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := LoadCheckpointState(path, fuzzFingerprint)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("error with empty message")
			}
			return
		}
		// A journal that loads must be internally consistent: the header
		// validated, and every restored base within its trial list.
		if st.Header.Fingerprint != fuzzFingerprint {
			t.Fatalf("accepted journal with foreign fingerprint %q", st.Header.Fingerprint)
		}
		for idx, base := range st.BaseTrials {
			pr, ok := st.Results[idx]
			if !ok {
				t.Fatalf("base recorded for index %d with no result", idx)
			}
			if base < 0 || base > len(pr.Trials) {
				t.Fatalf("index %d: base %d outside trial list of %d", idx, base, len(pr.Trials))
			}
		}
	})
}

// FuzzLoadCampaignJSON: the campaign file loader must never panic, and
// anything it accepts must round-trip through WriteJSON.
func FuzzLoadCampaignJSON(f *testing.F) {
	f.Add([]byte(`{"version":1,"app":"is","ranks":8,"totalPoints":4,"afterSemantic":2,"afterContext":2,"injected":2,"measured":[{"point":{"rank":1,"siteName":"allreduce"},"trials":[{"target":0,"bit":3,"outcome":0}]}]}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"measured":[{"point":{},"trials":[{"outcome":-5}]}]}`))
	f.Add([]byte(`{"version":1,"measured":[{"point":{},"trials":[{"target":77}]}]}`))
	f.Add([]byte(`{"version":1,"measured":[{"point":{},"trials":[{"target":13}]}]}`))
	f.Add([]byte(`{"version":1}{"version":1}`))      // trailing data
	f.Add([]byte(`{"version":1,"senseAdvised":[]}`)) // unknown field
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`"just a string"`))
	f.Add([]byte("{\"version\":1,\"app\":\"\x00\""))

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := ReadCampaignJSON(bytes.NewReader(data))
		if err != nil {
			if err.Error() == "" {
				t.Fatal("error with empty message")
			}
			return
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted campaign fails to re-serialise: %v", err)
		}
		if _, err := ReadCampaignJSON(&buf); err != nil {
			t.Fatalf("accepted campaign fails to round-trip: %v", err)
		}
	})
}

// FuzzTopologyConfig: the topology and fault-plan loaders — the two
// user-facing configuration surfaces of the network fault domain — must
// never panic on mangled input, and anything they accept must be
// internally consistent (routing stays on links, plans validate against
// the rank count they were validated for).
func FuzzTopologyConfig(f *testing.F) {
	f.Add("flat", "link:1-2,drop:0-3:2,crash:5", 8)
	f.Add("ring", "drop:0-1", 4)
	f.Add("torus:4x2", "", 8)
	f.Add("Torus:2X2", "crash:0", 4)
	f.Add("torus:3x3", "link:1-1", 8) // dims mismatch, self-link
	f.Add("torus:0x0", "link:a-b", 0) // zero everything
	f.Add("mesh", "drop:1-2:-4", -3)  // unknown kind, bad count
	f.Add("torus:", "gremlin:9", 1)
	f.Add("", ",,link:,", 2)
	f.Add("torus:9999999999x9999999999", "crash:", 1<<30)

	f.Fuzz(func(t *testing.T, topoSpec, planSpec string, ranks int) {
		topo, err := mpi.ParseTopology(topoSpec, ranks)
		if err == nil {
			if topo.Nodes() != ranks {
				t.Fatalf("ParseTopology(%q, %d) accepted a topology spanning %d nodes", topoSpec, ranks, topo.Nodes())
			}
			// Routing sanity on small accepted topologies: every first hop
			// must be a direct neighbor of the sender.
			if ranks >= 2 && ranks <= 16 {
				for from := 0; from < ranks; from++ {
					nbrs := topo.Neighbors(from)
					for to := 0; to < ranks; to++ {
						if to == from {
							continue
						}
						hop := topo.NextHop(from, to)
						ok := false
						for _, nb := range nbrs {
							if nb == hop {
								ok = true
							}
						}
						if !ok {
							t.Fatalf("%s: NextHop(%d,%d)=%d is not a neighbor %v", topo.Name(), from, to, hop, nbrs)
						}
					}
				}
			}
		} else if err.Error() == "" {
			t.Fatal("topology error with empty message")
		}

		plan, err := fault.ParseNetPlan(planSpec)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("net plan error with empty message")
			}
			return
		}
		// A parsed plan validated against an accepted topology must apply
		// to a fresh network without panicking.
		if topo != nil && ranks >= 1 && ranks <= 16 {
			if fault.ValidateNetPlan(plan, topo) == nil {
				fault.ApplyNetPlan(mpi.NewNetwork(topo), plan)
			}
		}
	})
}
