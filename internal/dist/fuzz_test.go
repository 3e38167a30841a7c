package dist_test

import (
	"encoding/json"
	"testing"

	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/dist"
)

// The wire-protocol decoders face the network: every one must turn
// arbitrary bytes into either a validated message or a descriptive error —
// never a panic, never a silently-accepted inconsistent message. The
// corpus seeds each target with well-formed messages (so the fuzzer starts
// from the full decode path) plus each validation failure.

// fuzzJournalPointLine is a well-formed checkpoint "point" line, the unit
// a journal batch carries.
func fuzzJournalPointLine(t testing.TB, idx int) []byte {
	line, err := core.EncodeJournalPoint(core.PointRecord{Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	return line
}

func FuzzDecodeLeaseGrant(f *testing.F) {
	valid, _ := json.Marshal(dist.LeaseGrant{
		LeaseID: "lease-1", Lo: 2, Hi: 6, Skip: []int{3},
		TTLSeconds: 30, Fingerprint: "f00d", Total: 8,
	})
	f.Add(valid)
	f.Add([]byte(`{"noWork":true}`))
	f.Add([]byte(`{"finished":true,"fingerprint":"f00d","total":8}`))
	// Each validation failure in turn.
	f.Add([]byte(`{"lo":0,"hi":4,"ttlSeconds":30,"total":8}`))                          // missing lease id
	f.Add([]byte(`{"leaseId":"x","lo":-1,"hi":4,"ttlSeconds":30,"total":8}`))           // negative lo
	f.Add([]byte(`{"leaseId":"x","lo":5,"hi":4,"ttlSeconds":30,"total":8}`))            // inverted range
	f.Add([]byte(`{"leaseId":"x","lo":0,"hi":9,"ttlSeconds":30,"total":8}`))            // range past total
	f.Add([]byte(`{"leaseId":"x","lo":0,"hi":4,"ttlSeconds":0,"total":8}`))             // no ttl
	f.Add([]byte(`{"leaseId":"x","lo":0,"hi":4,"skip":[7],"ttlSeconds":30,"total":8}`)) // skip outside range
	f.Add([]byte("not json at all"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := dist.DecodeLeaseGrant(data)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("error with empty message")
			}
			return
		}
		if g.NoWork || g.Finished {
			return
		}
		// An accepted grant must be internally consistent.
		if g.LeaseID == "" {
			t.Fatal("accepted grant without a lease id")
		}
		if g.Lo < 0 || g.Hi < g.Lo || g.Total < g.Hi {
			t.Fatalf("accepted grant with invalid range [%d,%d) of %d", g.Lo, g.Hi, g.Total)
		}
		if g.TTLSeconds <= 0 {
			t.Fatalf("accepted grant with ttl %g", g.TTLSeconds)
		}
		for _, idx := range g.Skip {
			if idx < g.Lo || idx >= g.Hi {
				t.Fatalf("accepted skip index %d outside [%d,%d)", idx, g.Lo, g.Hi)
			}
		}
	})
}

func FuzzDecodeRenewReply(f *testing.F) {
	f.Add([]byte(`{"ttlSeconds":30}`))
	f.Add([]byte(`{"expired":true}`))
	f.Add([]byte(`{"ttlSeconds":0}`)) // live lease without a ttl: invalid
	f.Add([]byte(`{"ttlSeconds":-1}`))
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := dist.DecodeRenewReply(data)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("error with empty message")
			}
			return
		}
		if !r.Expired && r.TTLSeconds <= 0 {
			t.Fatalf("accepted live lease with ttl %g", r.TTLSeconds)
		}
	})
}

func FuzzDecodeJournalBatch(f *testing.F) {
	rec := fuzzJournalPointLine(f, 3)
	quar, _ := core.EncodeJournalQuarantine(core.QuarantinedPoint{Index: 4, Attempts: 2, Err: "wedged"})
	valid, _ := json.Marshal(dist.JournalBatch{
		LeaseID: "lease-1", Worker: "shard-0",
		Records:     []json.RawMessage{rec},
		Quarantines: []json.RawMessage{quar},
		Done:        true,
	})
	f.Add(valid)
	f.Add([]byte(`{"worker":"shard-0","records":[]}`))                                // missing lease id
	f.Add([]byte(`{"leaseId":"x","records":["not a record"]}`))                       // non-JSON record line
	f.Add([]byte(`{"leaseId":"x","records":[{"kind":"gremlin"}]}`))                   // wrong record kind
	f.Add([]byte(`{"leaseId":"x","records":[{"kind":"point","index":-1}]}`))          // negative index
	f.Add([]byte(`{"leaseId":"x","quarantines":[{"kind":"quarantine","index":-2}]}`)) // negative quarantine index
	f.Add([]byte("\x00\x01\x02"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, recs, quars, err := dist.DecodeJournalBatch(data)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("error with empty message")
			}
			return
		}
		if b.LeaseID == "" {
			t.Fatal("accepted batch without a lease id")
		}
		if len(recs) != len(b.Records) || len(quars) != len(b.Quarantines) {
			t.Fatalf("decoded %d/%d records, %d/%d quarantines",
				len(recs), len(b.Records), len(quars), len(b.Quarantines))
		}
		for _, rec := range recs {
			if rec.Index < 0 {
				t.Fatalf("accepted record with negative index %d", rec.Index)
			}
			if rec.Base < 0 || rec.Base > len(rec.Result.Trials) {
				t.Fatalf("accepted record %d with base %d outside trial list of %d",
					rec.Index, rec.Base, len(rec.Result.Trials))
			}
		}
		for _, q := range quars {
			if q.Index < 0 {
				t.Fatalf("accepted quarantine with negative index %d", q.Index)
			}
		}
	})
}

func FuzzDecodeEventFrame(f *testing.F) {
	frame, err := core.EventEnvelope(1, core.ShardLease{Kind: "granted", Lease: "lease-1", Worker: "shard-0", Lo: 0, Hi: 4})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Add([]byte(`{"seq":2,"event":"pointCompleted","data":{}}`))
	f.Add([]byte(`{"seq":0,"event":"x"}`)) // non-positive seq
	f.Add([]byte(`{"seq":3}`))             // missing event name
	f.Add([]byte(`{"seq":-9,"event":""}`))
	f.Add([]byte("data: not even json"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := dist.DecodeEventFrame(data)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("error with empty message")
			}
			return
		}
		if fr.Seq < 1 {
			t.Fatalf("accepted frame with seq %d", fr.Seq)
		}
		if fr.Event == "" {
			t.Fatal("accepted frame without an event name")
		}
	})
}
